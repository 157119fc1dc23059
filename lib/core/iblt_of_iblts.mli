(** The IBLT-of-IBLTs protocol (paper §3.2, Algorithm 1, Theorem 3.5, and
    the repeated-doubling extension of Corollary 3.6).

    Every child set is compressed into an O(d)-cell child IBLT plus an
    O(log s)-bit hash; the fixed-width (table, hash) encodings are then
    themselves reconciled through an outer IBLT. Bob peels the outer table
    to learn which encodings differ, pairs each of Alice's differing child
    IBLTs with one of his own by attempting subtract-and-peel decodes, and
    patches his children with the recovered element differences.
    Communication O(d_hat d log u + d_hat log s), time O(n + d_hat^2 d).

    That is Algorithm 2 with a single level and no T*, so this module holds
    only the geometry: {!Cascade.alice} and {!Cascade.bob} run it,
    [Protocol] picks its tuning ([k = 4]) and runs Corollary 3.6's
    doubling. *)

val plan :
  seed:int64 -> enc_seed:int64 -> d:int -> d_hat:int -> s_bound:int -> k:int -> Cascade.plan
(** Algorithm 1 as a one-level plan with no T*: child tables sized for [d]
    element changes with a child hash of O(log [s_bound]) bits, salted by
    [enc_seed], in an outer table for 2 [d_hat] differing encodings salted
    by [seed]. [d_hat] bounds the number of differing children per side;
    [s_bound] is Bob's child count, which both parties know up to O(d).
    The label is [outer-iblt+digest]. *)
