(** IBLT reconciliation of multisets (paper §3.4).

    Each multiset becomes its set of (element, multiplicity) pairs; pair
    sets are reconciled with 16-byte-key IBLTs. A single multiplicity
    change touches at most two pairs, so a difference bound [d] on the
    multisets translates to at most [2d] differing pairs. *)

type outcome = { recovered : Multiset.t; stats : Comm.stats }

type error = [ `Decode_failure of Comm.stats ]

val reconcile_known_d :
  seed:int64 -> d:int -> alice:Multiset.t -> bob:Multiset.t -> unit ->
  (outcome, error) result
(** One round; succeeds with high probability when [d] bounds
    [Multiset.sym_diff_size alice bob]. *)

val run_known_d :
  comm:Comm.t -> seed:int64 -> d:int -> alice:Multiset.t -> bob:Multiset.t ->
  (outcome, [ `Decode_failure ]) result
(** {!reconcile_known_d} threaded through a caller-supplied recorder. The
    message is Alice's table and whole-multiset hash as one
    {!Comm.guarded} message. *)
