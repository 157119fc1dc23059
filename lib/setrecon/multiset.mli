(** Multisets of non-negative integers (paper §3.4).

    Reconciliation protocols handle multisets by replacing a multiset with
    the set of (element, multiplicity) pairs: a multiset where x occurs k
    times contributes the single pair (x, k). A multiplicity change then
    shows up as at most two pair-set differences, the universe grows from u
    to u * n, and every set protocol applies unchanged. *)

type t
(** Canonical: strictly increasing elements, positive multiplicities. *)

val of_list : int list -> t
(** Count occurrences. *)

val of_pairs : (int * int) list -> t
(** From (element, multiplicity); multiplicities of equal elements add.
    Raises [Invalid_argument] on non-positive multiplicities. *)

val to_pairs : t -> (int * int) list
val to_list : t -> int list
(** Elements repeated by multiplicity, sorted. *)

val cardinal : t -> int
(** Total multiplicity. *)

val support_size : t -> int
val multiplicity : int -> t -> int
val add : ?count:int -> int -> t -> t
val remove : ?count:int -> int -> t -> t
(** Removes up to [count] copies. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val sym_diff_size : t -> t -> int
(** Sum over elements of |multiplicity difference| — the multiset symmetric
    difference size |A ⊕ B| used throughout §5.2 and §6. *)

val pair_keys : t -> key_len:int -> Bytes.t list
(** The (element, multiplicity) pairs as fixed-width IBLT keys (element and
    count little-endian in the first 16 bytes). [key_len >= 16]. *)

val of_pair_keys : Bytes.t list -> t
(** Inverse of {!pair_keys}; raises [Invalid_argument] on malformed keys.
    Keys recovered from received sketches must go through
    {!of_pair_keys_opt} instead. *)

val of_pair_keys_opt : Bytes.t list -> t option
(** Total {!of_pair_keys}: [None] on any malformed key — too short, 64-bit
    word outside the native int range, negative element, or non-positive
    multiplicity — never an exception. *)

val canonical_bytes : t -> Bytes.t
(** Canonical serialization for hashing. *)
