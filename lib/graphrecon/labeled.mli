(** Labeled graph reconciliation.

    "If GA and GB were labeled graphs, then the problem would be equivalent
    to set reconciliation on their sets of labeled edges" (§4). This is the
    final step of every unlabeled protocol once a conforming labeling has
    been agreed: reconcile the edge-id sets. *)

type outcome = { recovered : Ssr_graphs.Graph.t; stats : Ssr_setrecon.Comm.stats }

type error = [ `Decode_failure of Ssr_setrecon.Comm.stats ]

val reconcile_known_d :
  seed:int64 -> d:int -> alice:Ssr_graphs.Graph.t -> bob:Ssr_graphs.Graph.t -> unit ->
  (outcome, error) result
(** One round, O(d log n) bits: an IBLT over edge ids. Requires the graphs
    to share a vertex count. *)
