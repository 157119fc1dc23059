(** Sets of sets of sets: the recursion the paper leaves as future work.

    §3.2 notes: "we could extend this recursive use of IBLTs further —
    creating IBLTs of structures representing sets of sets as IBLTs of
    IBLTs — to reconcile sets of sets of sets, but we do not currently have
    a compelling application". This module implements that third level of
    nesting, completing the recursion:

    - level 0: elements;
    - level 1: each child set is an (IBLT of elements, hash) encoding
      ({!Encoding}, as in Algorithm 1);
    - level 2: each parent (set of child sets) becomes an
      (IBLT of child encodings, hash) encoding of fixed width;
    - level 3: the grandparent set of parents is reconciled through an
      outer IBLT over the level-2 encodings.

    Bob peels the level-3 table to find the differing parent encodings,
    pairs each of Alice's with one of his own by subtract-and-peel at
    level 2 (yielding the differing child encodings inside that parent),
    pairs those at level 1 to recover element diffs, patches his children,
    rebuilds Alice's parents, and finally his grandparent. Every recovered
    object is verified against its transmitted hash.

    Communication is O(d3 * (d2 * (d log u + log s) + log s2)) for d3
    differing parents each with d2 differing children of difference ≤ d —
    the straightforward generalization of Theorem 3.5's bound. *)

type t
(** A set of parents, canonical (sorted, distinct). *)

val of_parents : Parent.t list -> t
val parents : t -> Parent.t list
val equal : t -> t -> bool

val hash : seed:int64 -> t -> int

val perturb :
  Ssr_util.Prng.t -> universe:int -> edits:int -> t -> t
(** Apply element-level edits to randomly chosen children of randomly
    chosen parents (the natural third-level update model). *)

val diff_bounds : t -> t -> int * int * int
(** [(d3, d2, d)]: differing parents (max per side), max differing children
    within any matched parent pair, and max element difference between any
    matched child pair — the knobs the protocol needs. Computed by relaxed
    best-matching, mirroring {!Parent.relaxed_matching_cost}. *)

type outcome = { recovered : t; stats : Ssr_setrecon.Comm.stats }

type error = [ `Decode_failure of Ssr_setrecon.Comm.stats ]

val reconcile_known :
  seed:int64 -> d:int -> d2:int -> d3:int -> alice:t -> bob:t -> unit -> (outcome, error) result
(** One round: the grandparent table and Alice's {!hash} as one
    {!Ssr_setrecon.Comm.guarded} message, which Bob parses before he peels.
    [d] bounds element differences between matched children, [d2]
    differing children per matched parent pair, [d3] differing parents
    per side. Every table has k = 3 hash functions. *)

val run_known :
  comm:Ssr_setrecon.Comm.t -> seed:int64 -> d:int -> d2:int -> d3:int ->
  alice:t -> bob:t -> (outcome, [ `Decode_failure ]) result
(** {!reconcile_known} on a caller-supplied recorder: {!alice} and {!bob}
    with [s] the largest of Bob's parents (at least 2). *)

val reconcile_unknown : seed:int64 -> alice:t -> bob:t -> unit -> (outcome, error) result
(** Repeated doubling on all three bounds simultaneously, up to 2^16: the
    attempt at bound d runs the two steps with d = d2 = d3 and
    {!doubling_seed}. *)

val run_unknown :
  comm:Ssr_setrecon.Comm.t -> seed:int64 -> alice:t -> bob:t ->
  (outcome, [ `Decode_failure ]) result
(** {!reconcile_unknown} on a caller-supplied recorder. *)

val alice : seed:int64 -> d:int -> d2:int -> d3:int -> s:int -> t -> unit Ssr_setrecon.Comm.party
(** Alice's step: the grandparent table over her parent encodings and her
    {!hash} as one message. [s], the public bound on a parent's child
    count, sizes the child hashes. *)

val bob :
  seed:int64 -> d:int -> d2:int -> d3:int -> s:int -> t ->
  (t, [ `Decode_failure ]) result Ssr_setrecon.Comm.party
(** Bob's step: he finishes with Alice's collection, verified against her
    hash. *)

val doubling_seed : seed:int64 -> d:int -> int64
(** The public coins of {!reconcile_unknown}'s attempt at bound [d]. *)
