(** Invertible Bloom Lookup Tables (Goodrich & Mitzenmacher; paper §2).

    An IBLT with [k] hash functions and [m] cells stores a (possibly signed)
    multiset of fixed-width keys. Each key is hashed into one cell of each of
    the [k] equal partitions of the table; a cell keeps a signed count, the
    XOR of the keys hashed to it, and the XOR of a checksum of those keys.
    Inserting and deleting are the same operation with opposite count signs,
    so subtracting Bob's table from Alice's leaves a table containing exactly
    the set difference (positive keys = Alice only, negative = Bob only),
    which the peeling decoder extracts (Theorem 2.1).

    Hot path: each key is scanned once ({!Ssr_util.Hashing.hash_bytes_pair})
    and all [k] cell positions plus the cell checksum are derived from the
    resulting two 64-bit lanes by a mixed double-hashing walk (a k-step
    SplitMix64 stream seeded by the pair), so insert/delete/peel cost one
    hash pass instead of [k + 1]. The schedule depends only on
    [(seed, params)], so it stays symmetric across peers.

    Keys are fixed-width byte strings so that one implementation serves
    integer elements, the naive protocol's wide child-set encodings, and the
    serialized child IBLTs of Algorithms 1 and 2.

    Failure modes match the paper: peeling failures leave residue and are
    always detected ([Error `Peel_stuck]); checksum failures are made
    negligible by 62-bit checksums and are further guarded by whole-set
    hashes at the protocol layer.

    Memory layout: the cell store is a single packed buffer in which each
    cell's count (i32 LE), key XOR and checksum XOR (LE, width set by
    [check_bits]) are contiguous, so a cell visit touches one cache line
    and {!body_bytes} is a straight copy of the store. Cell updates run
    word-wide through unchecked accessors that byte-swap on big-endian
    hosts, so every host builds the same bytes; tests pin them to a
    checked byte-wise reference. A byte-key update lists the key's
    nonzero 8-byte words once and XORs only those into its [k] cells, so
    the mostly-zero keys of the nested protocols (an iblt-of-iblts key is
    a serialized child table) cost their nonzero words, not their
    width. *)

type params = {
  cells : int;  (** Total number of cells; rounded up to a multiple of [k]. *)
  k : int;  (** Number of hash functions (3 or 4 in practice). *)
  key_len : int;  (** Key width in bytes. *)
  seed : int64;  (** Public-coin seed; both parties must use the same. *)
}

type t

val params : t -> params

val create : ?check_bits:int -> params -> t
(** Fresh empty table. [check_bits] (default [62]) sets the per-cell
    checksum width — one of [8], [16], [32] or [62] — trading undetected-
    pure-cell probability (~[2^-check_bits] per stuck candidate) for
    memory and wire bytes: a cell is [4 + key_len + check_bits/8 (rounded
    up)] bytes. The default width is the historical wire format; both
    parties must use the same width, like the parameters themselves. *)

val copy : t -> t
(** Deep copy: shares no mutable state with the original. *)

val recommended_cells : k:int -> diff_bound:int -> int
(** Cell count giving high decode probability for up to [diff_bound] keys;
    roughly [2 x diff_bound] plus slack, rounded to a multiple of [k].
    Matches the O(d)-cells regime of Corollary 2.2. *)

val insert : t -> Bytes.t -> unit
(** Add a key. The key must be exactly [key_len] bytes. *)

val delete : t -> Bytes.t -> unit
(** Remove a key (counts may go negative; see §2's signed-count extension). *)

val insert_int : t -> int -> unit
(** Insert a non-negative integer key ([key_len] must be [>= 8]; the value is
    stored little-endian, zero padded). *)

val delete_int : t -> int -> unit

val add_all : t -> Bytes.t array -> unit
(** {!insert} of every key, with the same resulting bytes. Every key's
    length is checked first, so a key of the wrong length raises
    [Invalid_argument] with the table untouched. Keys are hashed four at
    a time ({!Ssr_util.Hashing.hash_bytes4_into}), a tail of one to three
    singly; the call allocates nothing. *)

val delete_all : t -> Bytes.t array -> unit
(** {!delete} of every key; same contract as {!add_all}. *)

val add_all_ints : t -> int array -> unit
(** {!insert_int} of every integer, in order. *)

val delete_all_ints : t -> int array -> unit
(** {!delete_int} of every integer. *)

val subtract : t -> t -> t
(** [subtract a b] is the cell-wise difference: a table representing the
    signed multiset [a - b]. Both tables must have identical parameters
    and checksum width. *)

val is_empty : t -> bool
(** All counts, key sums and checksums are zero. *)

type decoded = {
  positives : Bytes.t list;  (** Keys with net count +1 (Alice-only side). *)
  negatives : Bytes.t list;  (** Keys with net count -1 (Bob-only side). *)
}

val decode : t -> (decoded, [ `Peel_stuck ]) result
(** Run the peeling process on a copy of the table. Succeeds iff the table
    empties completely. It peels at most [cells] keys, the most a genuine
    table yields, so no bytes can keep it peeling without end. *)

val positions : t -> Bytes.t -> int array
(** The [k] cell indices the schedule maps this key to, in partition order.
    Exposed for white-box tests and the adversarial workload generator;
    not used on any hot path. *)

val positions_int : t -> int -> int array
(** {!positions} of an integer key ([key_len >= 8], little-endian). *)

val decode_ints : t -> ((int list * int list), [ `Peel_stuck ]) result
(** {!decode} followed by little-endian integer decoding of each key. Total
    even on hostile tables: a peeled key that is not a valid non-negative
    native integer (sign bit set, or outside the 63-bit range) is a detected
    decode failure — counted under the [iblt.decode.bad_int_keys] metric —
    not an exception. *)

val body_bytes : t -> Bytes.t
(** Serialize counts, key sums and checksums (not the parameters, which are
    public coins). Fixed length for fixed [params]; this is both the unit of
    communication accounting and the representation used when child IBLTs
    become keys of an outer IBLT. The packed cell store is already in wire
    order, so this is a single copy of the buffer. *)

val blit_body : t -> Bytes.t -> int -> unit
(** [blit_body t dst pos] writes {!body_bytes} into [dst] at [pos] without
    allocating: how a child table becomes the body of a reused key
    buffer. *)

val clear : t -> unit
(** Reset every cell to zero, as {!create} left it: a pass that builds
    one small table per child reuses one table. *)

val of_body_bytes : ?check_bits:int -> params -> Bytes.t -> t
(** Inverse of {!body_bytes} given the shared parameters (and checksum
    width, default [62]). Raises [Invalid_argument] on a length mismatch;
    use {!of_body_bytes_opt} for bytes that arrived off a channel. *)

val of_body_bytes_opt : ?check_bits:int -> params -> Bytes.t -> t option
(** Non-raising {!of_body_bytes}: [None] when the length does not match the
    parameters (a truncated or padded transmission). All other corruption is
    representable and surfaces later as a detected peeling/checksum
    failure. *)

val body_length : ?check_bits:int -> params -> int
(** Length in bytes of {!body_bytes} for tables with these parameters (and
    checksum width, default [62]). *)

val size_bits : t -> int
(** [8 * body_length ~check_bits:(check_bits t) (params t)]. *)
