(** The naive set-of-sets protocol (paper §3.1, Theorems 3.3 and 3.4).

    Ignore that the items are sets: each child set is a single key from the
    universe of all possible child sets, encoded directly in
    min(h log u, u) bits ({!Direct}), and the parent sets are reconciled
    with ordinary IBLT set reconciliation. Communication is
    O(d_hat min(h log u, u)) — h log u per differing child — which the
    structured protocols of §3.2 beat as soon as d << h. Each party walks
    its {!Parent.stream} once per attempt, and the pass that builds its
    table (k = 4) also yields its {!Parent.stream_hash} guard. *)

val alice :
  seed:int64 -> d_hat:int -> u:int -> h:int -> Parent.stream -> unit Ssr_setrecon.Comm.party
(** Theorem 3.3, Alice: one message, her table for 2 [d_hat] differing
    children ([u] and [h] fix the encoding width) with her guard. *)

val bob :
  seed:int64 -> d_hat:int -> u:int -> h:int -> Parent.stream ->
  (Parent.delta, [ `Decode_failure ]) result Ssr_setrecon.Comm.party
(** Theorem 3.3, Bob: the peeled keys decode straight back to the delta,
    which he accepts only if it lands on Alice's guard. *)

val alice_unknown :
  seed:int64 -> u:int -> h:int -> Parent.stream -> unit Ssr_setrecon.Comm.party
(** Theorem 3.4, Alice: two rounds. She waits for Bob's estimator over
    (hashes of) his child sets, and answers with {!alice}'s message sized
    by her estimate of the differing children. *)

val bob_unknown :
  seed:int64 -> u:int -> h:int -> Parent.stream ->
  (Parent.delta, [ `Decode_failure ]) result Ssr_setrecon.Comm.party
(** Theorem 3.4, Bob: he opens with the estimator; the estimate reaches
    him only through the length of Alice's answer, which fixes its cell
    count ({!Ssr_setrecon.Comm.sized}). *)
