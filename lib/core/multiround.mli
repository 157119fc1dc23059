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
    d, 4 for unknown. *)

type outcome = {
  delta : Parent.delta;  (** What Bob learned: Alice-only and Bob-only children. *)
  matched_children : int;  (** differing children repaired *)
  cpi_children : int;  (** how many used the CPI primitive *)
  stats : Ssr_setrecon.Comm.stats;
}

type error = [ `Decode_failure of Ssr_setrecon.Comm.stats ]

type primitive =
  | Auto  (** The paper's rule: CPI below sqrt d, IBLT above. *)
  | Always_iblt  (** Ablation: IBLT for every child. *)
  | Always_cpi  (** Ablation: CPI for every child. *)

val reconcile_known :
  seed:int64 -> d:int -> ?primitive:primitive ->
  alice:Parent.t -> bob:Parent.t -> unit -> (outcome, error) result
(** Theorem 3.9: 3 rounds, with [Protocol]'s tuning ([k = 4], d_hat =
    [min d s], {!default_child_shape}). [d] bounds the total element
    changes and gates the IBLT-vs-CPI choice at sqrt d ([primitive]
    overrides the choice for the ablation benches). *)

val reconcile_unknown :
  seed:int64 -> alice:Parent.t -> bob:Parent.t -> unit -> (outcome, error) result
(** Theorem 3.10: 4 rounds; the extra leading round estimates the number of
    differing children. *)

val default_child_shape : Ssr_sketch.L0_estimator.shape
(** The default shape of the per-child estimators of round 2. *)

val run_stream :
  comm:Ssr_setrecon.Comm.t -> seed:int64 -> d:int -> d_hat:int -> k:int ->
  shape:Ssr_sketch.L0_estimator.shape -> primitive:primitive ->
  alice:Parent.stream -> bob:Parent.stream -> (outcome, [ `Decode_failure ]) result
(** One attempt threaded through a caller-supplied recorder (for retry
    drivers and transports); the outcome's stats are cumulative for [comm].
    The only build path, over {!Parent.stream} views ({!Parent.stream_of_t}
    for materialized parents): the hash index stores stream positions, so
    only the O(d_hat) differing children are ever fetched; the round-1
    guard carries {!Parent.stream_hash}, which each party computes in the
    same walk that builds its hash index; the result is the O(d) delta. *)
