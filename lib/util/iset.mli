(** Immutable sets of non-negative integers as sorted arrays.

    Child sets, signatures and edge sets are all small integer sets that are
    built once and then iterated, hashed and diffed many times; a sorted
    array gives the canonical representation needed for hashing (the paper
    hashes child sets) with linear-time set operations and no per-element
    boxing. *)

type t

val empty : t
val of_list : int list -> t
(** Sorts and deduplicates. *)

val of_sorted_array_unchecked : int array -> t
(** Trusts the caller that the array is strictly increasing. The array is
    not copied; callers must not mutate it afterwards. *)

val of_seq : int Seq.t -> t
(** Sorts and deduplicates; the sequence is forced once. Entry point for
    streaming producers (document shingling, dataset generators) that never
    build an intermediate list per element. *)

val to_list : t -> int list
val to_array : t -> int array
(** A fresh copy. *)

val cardinal : t -> int
val is_empty : t -> bool
val mem : int -> t -> bool
(** Binary search. *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** Lexicographic on the sorted elements. *)

val add : int -> t -> t
val remove : int -> t -> t
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val sym_diff : t -> t -> t
(** Symmetric difference [a ⊕ b]. *)

val sym_diff_size : t -> t -> int
(** [cardinal (sym_diff a b)] without building the set. *)

val iter : (int -> unit) -> t -> unit
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val min_elt : t -> int
(** Raises [Not_found] on the empty set. *)

val max_elt : t -> int
(** Raises [Not_found] on the empty set. *)

val apply_diff : t -> add:t -> del:t -> t
(** [apply_diff s ~add ~del] is [(s \ del) ∪ add]; how Bob turns a decoded
    set difference into Alice's set. *)

val canonical_bytes : t -> Bytes.t
(** Fixed 8-bytes-per-element little-endian encoding of the sorted elements;
    the canonical serialization used for hashing child sets. *)

val digest : Hashing.fn -> t -> int
(** [digest f c] is [Hashing.hash_bytes f (canonical_bytes c)], computed
    without building the bytes: allocates nothing. How child sets are
    hashed. *)

val random_subset : Prng.t -> universe:int -> size:int -> t
(** Uniform random subset of [\[0, universe)] with exactly [size] elements
    (reservoir-free, via partial Fisher–Yates). Requires
    [size <= universe]. *)

val hash : t -> int
(** Non-negative structural hash over {e every} element (FNV-1a), so sets
    differing only in their tail still separate — suitable for hashtable
    keys, unlike the prefix-sampling polymorphic hash. *)

module Tbl : Hashtbl.S with type key = t
(** Hashtables keyed by whole child sets (via {!hash}/{!equal}): the O(1)
    recovered-child lookups used by the set-of-sets recovery sweeps in
    place of linear [List.exists] scans. *)

val pp : Format.formatter -> t -> unit
