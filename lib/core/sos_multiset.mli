(** Sets of multisets and multisets of multisets (paper §3.4).

    §3.4 adapts every set-of-sets protocol to multisets by the (x, count)
    pairing: a child multiset where x occurs k times becomes a child {e set}
    containing the single encoded pair (x, k), blowing the universe up from
    u to u*n. A multiplicity change touches at most two pairs, so a total
    difference bound d on the multisets becomes a 2d bound on the pair
    sets. This module implements that reduction on top of {!Protocol}, plus
    the duplicate-indexing trick that turns a {e multiset} of child
    multisets (needed by forest reconciliation, §6) into a plain set of
    children: the j-th copy of a repeated child carries an extra reserved
    pair (occurrence marker, j). An edit to one copy then perturbs at most
    two additional elements, preserving the O(d) difference bound. *)

type t
(** A multiset of child multisets, in canonical form. *)

val of_children : Ssr_setrecon.Multiset.t list -> t
(** Children may repeat; order is irrelevant. *)

val children : t -> Ssr_setrecon.Multiset.t list
(** Canonical order, duplicates preserved. *)

val cardinal : t -> int
val equal : t -> t -> bool

val diff_bound : t -> t -> int
(** Total difference under per-child best matching (the analogue of
    {!Parent.relaxed_matching_cost}), measured in multiset element
    changes. *)

val reconcile :
  Protocol.kind -> seed:int64 -> d:int -> u:int ->
  alice:t -> bob:t -> unit ->
  (t * Ssr_setrecon.Comm.stats, [ `Decode_failure of Ssr_setrecon.Comm.stats ]) result
(** One-way reconciliation: Bob recovers Alice's multiset of multisets.
    [d] bounds the total multiset element changes; [u] is the element
    universe of the child multisets. *)

val reconcile_unknown :
  Protocol.kind -> seed:int64 -> u:int ->
  alice:t -> bob:t -> unit ->
  (t * Ssr_setrecon.Comm.stats, [ `Decode_failure of Ssr_setrecon.Comm.stats ]) result
(** As {!reconcile} but with the protocol's unknown-d mechanism (estimator
    round or repeated doubling). *)

val run :
  Protocol.kind -> comm:Ssr_setrecon.Comm.t -> seed:int64 -> d:int -> u:int ->
  alice:t -> bob:t -> (t, [ `Decode_failure ]) result
(** {!reconcile} on a caller-supplied recorder. *)

val run_unknown :
  Protocol.kind -> comm:Ssr_setrecon.Comm.t -> seed:int64 -> u:int ->
  alice:t -> bob:t -> (t, [ `Decode_failure ]) result
(** {!reconcile_unknown} on a caller-supplied recorder. *)
