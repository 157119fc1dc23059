(** Dense univariate polynomials over GF(2^61 - 1).

    These are the characteristic polynomials of Theorem 2.3: a set
    S = {x1, ..., xn} is represented by chi_S(z) = (z - x1)...(z - xn), and
    reconciliation interpolates the rational function chi_A / chi_B from d
    point evaluations. This module supplies the ring operations; rational
    interpolation lives in {!Linalg} / {!module:Roots}. *)

type t
(** A polynomial; the zero polynomial has degree [-1]. Representations are
    normalized (no trailing zero coefficients). *)

val zero : t
val one : t
val constant : Gf61.t -> t

val of_coeffs : Gf61.t array -> t
(** Coefficients in increasing degree order; normalizes a copy. *)

val coeffs : t -> Gf61.t array
(** Fresh array of coefficients in increasing degree order; [[||]] for the
    zero polynomial. *)

val degree : t -> int
(** [-1] for the zero polynomial. *)

val is_zero : t -> bool
val equal : t -> t -> bool

val coeff : t -> int -> Gf61.t
(** [coeff p i] is the coefficient of [z^i] (0 beyond the degree). *)

val eval : t -> Gf61.t -> Gf61.t
(** Horner evaluation, O(degree). *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
(** Multiplication: schoolbook below a tuned cutover length, Karatsuba
    (O(n^1.585)) above it. Field addition is exact, so both paths return
    bit-identical coefficients. *)

val scale : Gf61.t -> t -> t
val monic : t -> t
(** Divide by the leading coefficient. Requires a nonzero polynomial. *)

val divmod : t -> t -> t * t
(** [divmod a b = (q, r)] with [a = q*b + r] and [degree r < degree b].
    Requires [b] nonzero. *)

val gcd : t -> t -> t
(** Monic greatest common divisor. *)

val from_roots : Gf61.t array -> t
(** [(z - r1)...(z - rk)], the characteristic polynomial of the multiset of
    roots. Product-tree construction, O(k^2) worst case (k is O(d) here). *)

val eval_from_roots : Gf61.t array -> Gf61.t -> Gf61.t
(** Evaluate [(z - r1)...(z - rk)] at a point without building the
    polynomial — this is how Alice computes chi_S(z_i) in O(n) per point. *)

val mulmod : t -> t -> modulus:t -> t
(** [mulmod a b ~modulus = (a * b) mod modulus] without materializing the
    intermediate product polynomial as a separate [t]. Requires
    [degree modulus >= 1]. *)

val powmod : t -> int -> modulus:t -> t
(** [powmod base k ~modulus]: [base^k mod modulus] by left-to-right
    square-and-multiply over a preallocated in-place working set; the
    workhorse of equal-degree factorization in {!module:Roots}. The
    multiply step reuses the reduced base, so low-degree bases (the [x]
    and [x + a] of root finding) make the huge exponents of Theorem 2.3
    cost squarings only. *)

type reducer
(** A precomputed reduction object for one fixed modulus: the Newton
    inverse [rev(m)^{-1} mod x^(degree m)] that turns each remainder into
    two truncated multiplications (polynomial Barrett reduction) instead
    of a long division. Built once per {!powmod} call tree and reused
    across all ~61 square-and-multiply iterations. *)

val reducer : t -> reducer
(** Precompute a reducer for the given modulus. Requires
    [degree modulus >= 1]. *)

val reduce : reducer -> t -> t
(** [reduce r a = a mod m] for the reducer's modulus [m] (remainders are
    taken against the monic scaling of [m], exactly as {!divmod}'s
    remainder). Exposed so differential tests can pin the Newton path
    against long division on arbitrary inputs. *)

val derivative : t -> t
