(** Arithmetic in the prime field GF(p) for p = 2^61 - 1.

    This is the field under the characteristic-polynomial reconciliation of
    Theorem 2.3 and the Schwartz–Zippel graph protocols of Section 4. The
    Mersenne prime 2^61 - 1 is large enough that an n-element set has
    collision / false-equality probability O(n / 2^61), and small enough
    that all arithmetic fits OCaml's 63-bit native integers: products are
    computed by splitting operands into 30/31-bit limbs so no intermediate
    exceeds 2^62.

    Elements are represented canonically as ints in [\[0, p)]. *)

type t = int
(** A field element in [\[0, p)]. *)

val p : int
(** The modulus 2^61 - 1. *)

val zero : t

val of_int : int -> t
(** Reduce an arbitrary non-negative int modulo [p]. Raises [Invalid_argument]
    on negative input. *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t

val pow : t -> int -> t
(** [pow x k] for [k >= 0], by square-and-multiply. *)

val inv : t -> t
(** Multiplicative inverse via Fermat; raises [Division_by_zero] on 0. *)

val batch_inv : t array -> t array
(** Element-wise inverses computed with Montgomery's trick: one {!inv} plus
    three multiplies per element, instead of one ~61-squaring Fermat
    inversion each. Raises [Division_by_zero] if any element is 0 (as the
    element-wise computation would). The input is not modified. *)

val read : Ssr_util.Codec.reader -> t option
(** The next 8-byte little-endian word off the wire as a field element:
    [None] unless it is below [p]. *)

val random : Ssr_util.Prng.t -> t
(** Uniform element of [\[0, p)]. *)

val random_nonzero : Ssr_util.Prng.t -> t
(** Uniform element of [\[1, p)]. *)

val equal : t -> t -> bool
