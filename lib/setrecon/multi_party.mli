(** Multi-party set reconciliation (after Mitzenmacher–Pagh [24] and
    Boral–Mitzenmacher [8], the extension line the paper cites in §1.1).

    k parties each hold a set within bounded distance of every other; all
    want the union. In the broadcast model each party publishes a single
    IBLT of its set (sized for the largest pairwise difference) plus a hash;
    every receiver subtracts its own table from each received one, peels out
    the pairwise differences, and unions in the elements it lacks. Total
    communication k * O(d log u) — each party sends one sketch regardless
    of k — against the trivial k * O(n log u) of broadcasting the sets.

    Verification: a receiver accepts a peeled difference only if applying it
    to its own set matches the sender's transmitted hash, so a decode
    failure for one sender degrades to a detected per-sender failure. *)

type outcome = {
  union : Ssr_util.Iset.t;
  per_party : Ssr_util.Iset.t array;  (** What each party ends up holding. *)
  stats : Comm.stats;  (** Total broadcast traffic (all parties' sketches). *)
}

type error = [ `Decode_failure of int * Comm.stats ]
(** The index of a party whose sketch could not be reconciled by everyone. *)

val reconcile_broadcast :
  seed:int64 -> d:int -> parties:Ssr_util.Iset.t array -> unit -> (outcome, error) result
(** [d] bounds every pairwise symmetric difference. Requires >= 2 parties.
    On success every entry of [per_party] equals [union]. *)

val run_broadcast :
  comm:Comm.t -> seed:int64 -> d:int -> parties:Ssr_util.Iset.t array ->
  (outcome, [ `Decode_failure of int ]) result
(** {!reconcile_broadcast} threaded through a caller-supplied recorder:
    one {!Comm.guarded} message per party, and every receiver reconciles
    against the copy delivered. *)

val pairwise_bound : Ssr_util.Iset.t array -> int
(** The exact max pairwise difference (O(k^2 n); for workloads and tests). *)
