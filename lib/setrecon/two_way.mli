(** Mutual (two-way) set reconciliation.

    The paper focuses on one-way reconciliation and notes (§1) that "our
    work can be extended to mutual reconciliation in various ways"; this
    module is the standard such extension for plain sets, where — unlike
    for unlabeled graphs (Figure 1) — the union is well defined.

    Protocol: the first leg is one-way reconciliation
    ({!Set_recon.run_known_d}): Alice sends her IBLT and set hash, Bob
    peels and now knows both difference sides, so his union is immediate.
    One return message carrying B \ A (d' canonical elements) and the hash
    of Bob's union completes Alice's, and she checks her union against that
    hash. Total cost O(d log u) bits in 2 rounds, the same class as
    one-way. *)

type outcome = {
  union : Ssr_util.Iset.t;  (** What both parties hold afterwards. *)
  alice_minus_bob : Ssr_util.Iset.t;
  bob_minus_alice : Ssr_util.Iset.t;
  stats : Comm.stats;
}

type error = [ `Decode_failure of Comm.stats ]

val reconcile_known_d :
  seed:int64 -> d:int -> alice:Ssr_util.Iset.t -> bob:Ssr_util.Iset.t -> unit ->
  (outcome, error) result
(** 2 rounds, O(d log u) bits. [d] bounds |A ⊕ B|. *)

val reconcile_unknown_d :
  seed:int64 -> alice:Ssr_util.Iset.t -> bob:Ssr_util.Iset.t -> unit -> (outcome, error) result
(** 3 rounds: Bob's estimator, Alice's IBLT, Bob's return diff. *)

val run_unknown_d :
  comm:Comm.t -> seed:int64 -> alice:Ssr_util.Iset.t -> bob:Ssr_util.Iset.t -> unit ->
  (outcome, [ `Decode_failure ]) result
(** {!reconcile_unknown_d} threaded through a caller-supplied recorder. *)
