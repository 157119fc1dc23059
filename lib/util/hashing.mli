(** Seeded hash functions.

    Every hash function in the protocols is derived from a (public-coin)
    seed plus a role tag, so Alice and Bob compute identical tables without
    exchanging anything — the paper's public-coin assumption. The functions
    here are built on the SplitMix64 finalizer, which empirically behaves
    far better than the minimal pairwise-independent families the proofs
    assume, while being just as cheap. *)

type fn
(** A concrete seeded hash function over 63-bit non-negative integers. *)

val make : seed:int64 -> tag:int -> fn
(** Derive a hash function identified by [(seed, tag)]. *)

val hash_int : fn -> int -> int
(** Hash to a non-negative 62-bit integer. *)

val hash_int64 : fn -> int64 -> int64
(** Full 64-bit variant. *)

val reduce64 : int64 -> int -> int
(** [reduce64 h m] maps a full 64-bit hash into [\[0, m)] by the Lemire
    multiply-shift: the high word of the unsigned product [h * m]. Unlike
    [mod m] it uses all 64 input bits, has no division, and its bias is
    bounded by [m / 2^64] instead of [2^64 mod m / 2^64]. Requires
    [m > 0]. *)

val to_range : fn -> int -> int -> int
(** [to_range f m x] hashes [x] into [\[0, m)]. Requires [m > 0]. *)

val hash_bytes : fn -> Bytes.t -> int
(** Hash a byte string to a non-negative 62-bit integer (a 64-bit chained
    mix over 8-byte words). Allocates nothing, at any key length. *)

val hash_ints : fn -> int array -> int
(** [hash_ints f a] is [hash_bytes f b] where [b] is the 8-byte
    little-endian encoding of each [a.(i)] in turn, computed without
    building [b]: allocates nothing. *)

val hash_bytes_pair : fn -> Bytes.t -> int * int
(** Two independent-looking native-int (63-bit) hashes from a single pass
    over the bytes: the chained data mix is shared and only the (native,
    allocation-free) finalizer differs per lane. This is the IBLT fast
    path — one scan of the key yields enough entropy to derive every cell
    position and the cell checksum, instead of [k + 1] separate scans.
    Lane values range over all native ints, including negatives. *)

val hash_bytes_into : fn -> Bytes.t -> int array -> unit
(** {!hash_bytes_pair} delivered through an out-parameter: lane 1 lands in
    [out.(0)] and lane 2 in [out.(1)] ([out] must have length [>= 2]).
    The pair return of {!hash_bytes_pair} allocates; the IBLT
    insert/delete/peel paths use this instead so one sketch update
    allocates nothing at all. Lane values are bit-identical to
    {!hash_bytes_pair}. *)

val hash_int_bytes_into : fn -> int -> len:int -> int array -> unit
(** {!hash_bytes_into} of the little-endian [len]-byte encoding of [x]
    (zero padded), computed without materializing the bytes. Bit-identical
    to hashing the encoded buffer; requires [len >= 8]. Backs the IBLT
    integer fast path. *)

val mix_pair : int -> int -> int
(** Mix the two lanes of {!hash_bytes_pair} into a non-negative 62-bit
    checksum value. Kept here so the mixing discipline lives next to the
    hash it consumes. *)

val reduce_fast : int -> int -> int
(** [reduce_fast s m] maps a mixed native-int hash into [\[0, m)] by
    multiply-shift on its low 31 bits: [((s land 0x7FFFFFFF) * m) lsr 31].
    No division, no allocation, no sign pitfalls. Requires
    [0 < m <= 2^31]; bias is [<= m / 2^31]. Unchecked — this is the
    per-cell inner loop. *)

val truncate_bits : int -> bits:int -> int
(** Keep only the low [bits] bits of a hash value; models the paper's
    O(log s)-bit child hashes so that communication accounting (and hash
    collision behaviour) matches the stated bit budgets. [bits] must be in
    [\[1, 62\]]. *)

val attempt_seed : seed:int64 -> attempt:int -> int64
(** Deterministic per-attempt salt for rehash escalation: both parties
    re-derive the whole hash schedule of retry [attempt] from the public
    seed alone, so a peeling failure on one schedule is retried under an
    independent-looking one with no extra coordination. [attempt] numbers
    are protocol-wide (attempt 0 is the first transmission) and must be
    non-negative; distinct attempts give independent-looking seeds. *)
