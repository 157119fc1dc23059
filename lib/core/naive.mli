(** The naive set-of-sets protocol (paper §3.1, Theorems 3.3 and 3.4).

    Ignore that the items are sets: each child set is a single key from the
    universe of all possible child sets, encoded directly in
    min(h log u, u) bits ({!Direct}), and the parent sets are reconciled
    with ordinary IBLT set reconciliation. Communication is
    O(d_hat min(h log u, u)) — h log u per differing child — which the
    structured protocols of §3.2 beat as soon as d << h. *)

type outcome = {
  delta : Parent.delta;  (** What Bob learned: Alice-only and Bob-only children. *)
  stats : Ssr_setrecon.Comm.stats;
}

type error = [ `Decode_failure of Ssr_setrecon.Comm.stats ]

val reconcile_unknown :
  seed:int64 -> u:int -> h:int -> alice:Parent.t -> bob:Parent.t -> unit ->
  (outcome, error) result
(** Theorem 3.4: two rounds. Bob first sends a set-difference estimator over
    (hashes of) his child sets to bound the number of differing children. *)

val run_stream :
  comm:Ssr_setrecon.Comm.t -> seed:int64 -> d_hat:int -> u:int -> h:int -> k:int ->
  alice:Parent.stream -> bob:Parent.stream -> (outcome, [ `Decode_failure ]) result
(** Theorem 3.3: one attempt (one round) threaded through a
    caller-supplied recorder; the outcome's stats are cumulative for
    [comm]. [d_hat] bounds the differing child sets on either side; [u]
    and [h] fix the direct encoding width. The only build path: the table
    is built one encoding chunk at a time from the {!Parent.stream} views
    and sent with Alice's {!Parent.stream_hash} guard through
    {!Ssr_setrecon.Comm.xfer_guarded}. The result is the O(d) delta (direct
    encodings decode straight back to children, so no side index is
    needed). Each party walks its stream once per attempt: the pass that
    builds its table also yields its digest. *)
