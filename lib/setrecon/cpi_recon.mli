(** Characteristic-polynomial set reconciliation (Minsky, Trachtenberg &
    Zippel; paper Theorem 2.3).

    Alice's set S is represented by chi_S(z) = prod (z - x). She sends the
    evaluations of chi_S at d+2 agreed points plus |S|; Bob forms the ratio
    f(z) = chi_A(z)/chi_B(z) at those points, interpolates the reduced
    rational function by Gaussian elimination, and factors numerator and
    denominator: the numerator's roots are A \ B and the denominator's are
    B \ A. Unlike the IBLT route this never fails when the bound [d] is
    correct (the root-finder is Las Vegas), at O(nd + d^3) cost — which is
    why the multi-round protocol of §3.3 uses it for child sets with small
    differences.

    Elements x are encoded as the field values x + 1 (avoiding zero);
    evaluation points are taken from the top of the field, disjoint from any
    encoding, so chi_B never vanishes at them. Elements must therefore be
    below 2^61 - 2 - (d + 1). *)

type outcome = {
  recovered : Ssr_util.Iset.t;
  alice_minus_bob : Ssr_util.Iset.t;
  bob_minus_alice : Ssr_util.Iset.t;
  stats : Comm.stats;
}

type error = [ `Bound_too_small of Comm.stats ]
(** The numerator/denominator did not split into linear factors over the
    field, or the recovered difference was inconsistent: the true difference
    exceeded [d]. Also a lost or malformed message. Always detected. *)

val reconcile_known_d :
  seed:int64 -> d:int -> alice:Ssr_util.Iset.t -> bob:Ssr_util.Iset.t -> unit ->
  (outcome, error) result
(** One round: Alice's message is her d + 2 evaluations and |A|, one
    8-byte word each, and Bob runs {!recover_set} on what he parses. *)

val run_known_d :
  comm:Comm.t -> seed:int64 -> d:int -> alice:Ssr_util.Iset.t -> bob:Ssr_util.Iset.t ->
  (outcome, [ `Bound_too_small ]) result
(** {!reconcile_known_d} threaded through a caller-supplied recorder. *)

val reconcile_multiset_known_d :
  seed:int64 -> d:int -> alice:(int * int) list -> bob:(int * int) list -> unit ->
  ((int * int) list * Comm.stats, error) result
(** Multiset variant (§3.4: "Theorem 2.3 works as is"): inputs and output
    are sorted (element, multiplicity) lists; characteristic polynomials may
    have repeated roots and the factoring recovers multiplicities. [d] must
    bound the total multiplicity difference. The message is the set
    variant's, with Alice's total multiplicity as her size. *)

val run_multiset_known_d :
  comm:Comm.t -> seed:int64 -> d:int -> alice:(int * int) list -> bob:(int * int) list ->
  ((int * int) list * Comm.stats, [ `Bound_too_small ]) result
(** {!reconcile_multiset_known_d} threaded through a caller-supplied
    recorder. *)

val evaluations : d:int -> Ssr_util.Iset.t -> Ssr_field.Gf61.t array
(** Alice's message payload: chi_S at the d+2 shared evaluation points (for
    callers embedding CPI in larger protocols). *)

val read_evaluations : Ssr_util.Codec.reader -> d:int -> Ssr_field.Gf61.t array option
(** The next d + 2 field words off the wire ({!Ssr_field.Gf61.read}), as
    {!evaluations} produces them; [None] otherwise. Total, and allocates
    only after the bytes are known to be there. *)

val recover_set :
  seed:int64 -> d:int -> size_a:int -> evals:Ssr_field.Gf61.t array ->
  bob:Ssr_util.Iset.t -> Ssr_util.Iset.t option
(** Bob's side of the exchange, decoupled from transcript accounting: given
    Alice's evaluations (as produced by {!evaluations} with the same [d])
    and her set size, recover her set, or [None] if the bound was too
    small. Used by the multi-round set-of-sets protocol (§3.3) to reconcile
    individual child sets. *)
