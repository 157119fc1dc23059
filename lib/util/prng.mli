(** Deterministic pseudo-random number generation.

    All randomness in this library flows through this module so that protocol
    runs are reproducible and so that Alice and Bob can share "public coins":
    both parties derive identical hash functions from a shared 64-bit seed,
    exactly as the paper assumes (Section 2, "public coins").

    The stream generator is xoshiro256**, seeded through SplitMix64, which is
    the recommended seeding procedure for the xoshiro family. [mix64] exposes
    the SplitMix64 finalizer as a high-quality stateless mixer; it is the
    basis of the seeded hash functions in {!Hashing}. *)

type t
(** Mutable generator state. *)

val create : seed:int64 -> t
(** [create ~seed] builds a generator whose output is a pure function of
    [seed]. *)

val copy : t -> t
(** Independent copy of the current state. *)

val mix64 : int64 -> int64
(** The SplitMix64 finalizer: a bijective mixing of 64-bit words with good
    avalanche behaviour. Stateless. *)

val mix_int : int -> int
(** Native-int analogue of {!mix64}: a stateless bijective mixer on the
    63-bit native [int] domain. Unlike [int64] mixing it never allocates,
    which is what the per-element hot paths (IBLT cell schedules) need.
    The result ranges over all native ints, including negatives — mask or
    reduce before using it as an index. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val next_int : t -> int
(** Next non-negative 62-bit integer (always fits OCaml's native [int]). *)

val int_below : t -> int -> int
(** [int_below t n] is uniform in [\[0, n)]. Requires [n > 0]. Uses rejection
    sampling, so the result is exactly uniform. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is true with probability [p]. *)

val geometric_skip : t -> float -> int
(** [geometric_skip t p] samples the number of failures before the first
    success of a Bernoulli([p]) sequence, i.e. Geometric(p) on {0,1,2,...}.
    Used for O(pn^2)-time G(n,p) sampling. Requires [0 < p <= 1]. *)

val derive : seed:int64 -> tag:int -> int64
(** [derive ~seed ~tag] deterministically derives a fresh 64-bit seed.
    Distinct tags give independent seeds; this is how per-level, per-role
    hash functions are derived from the public-coin seed. *)
