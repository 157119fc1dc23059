(** The multi-round set-of-sets protocol (paper §3.3, Theorems 3.9 and 3.10,
    Appendix B).

    Instead of shipping nested sketches blind, the parties spend extra
    rounds to learn where the differences are and then reconcile each
    differing child with a right-sized primitive:

    + (unknown d only) Bob sends a set-difference estimator over the hashes
      of his child sets, so Alice can size the next message.
    + Alice sends an IBLT of her child hashes; reconciling hashes tells both
      parties {e which} children differ.
    + Bob replies with his hash IBLT (so Alice can decode the same
      difference) and one small l0 estimator per differing child.
    + Alice matches each of her differing children to Bob's most similar one
      by merging estimators, then sends, per child: the match index plus
      either an IBLT of the child (large estimated difference) or
      characteristic-polynomial evaluations (small difference, where CPI's
      exactness beats peeling). Bob applies the per-child reconciliations.

    Communication O(d_hat log s + d_hat log h + d log u); 3 rounds for known
    d, 4 for unknown. The rounds are one state machine per party
    ({!Ssr_setrecon.Comm.party}); [Protocol] runs them. *)

type primitive =
  | Auto  (** The paper's rule: CPI below sqrt d, IBLT above. *)
  | Always_iblt  (** Ablation: IBLT for every child. *)
  | Always_cpi  (** Ablation: CPI for every child. *)

val alice :
  seed:int64 -> d:int -> d_hat:int -> primitive:primitive -> Parent.stream ->
  int Ssr_setrecon.Comm.party
(** Theorem 3.9, Alice: rounds 1 and 3 (k = 4); only her O(d_hat)
    differing children are ever fetched, named by her table minus the TB
    delivered to her. [d] gates the IBLT-vs-CPI choice at sqrt d
    ([primitive] overrides it for the ablation benches). She finishes with
    the number of children she sent as CPI. *)

val bob :
  seed:int64 -> d_hat:int -> Parent.stream ->
  (Parent.delta, [ `Decode_failure ]) result Ssr_setrecon.Comm.party
(** Theorem 3.9, Bob: round 2, and the repair of each differing child
    from round 3, verified against its content hash and the delta against
    Alice's guard. *)

val alice_unknown : seed:int64 -> Parent.stream -> int Ssr_setrecon.Comm.party
(** Theorem 3.10, Alice: she waits for Bob's estimator of the differing
    children and runs {!alice} sized by her estimate. *)

val bob_unknown :
  seed:int64 -> Parent.stream -> (Parent.delta, [ `Decode_failure ]) result Ssr_setrecon.Comm.party
(** Theorem 3.10, Bob: the leading estimator round, then {!bob}'s rounds
    with the round-1 table sized by the delivered length
    ({!Ssr_setrecon.Comm.sized}). *)
