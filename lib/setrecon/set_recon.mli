(** IBLT-based set reconciliation (paper §2, Corollaries 2.2 and 3.2).

    One-way reconciliation: Bob ends up with Alice's set. Alice encodes her
    set in an O(d)-cell IBLT and transmits it; Bob deletes his elements and
    peels out the difference. With an unknown difference size, Bob first
    sends a set-difference estimator (Theorem 3.1), adding one round. *)

type outcome = {
  recovered : Ssr_util.Iset.t;  (** Bob's reconstruction of Alice's set. *)
  alice_minus_bob : Ssr_util.Iset.t;
  bob_minus_alice : Ssr_util.Iset.t;
  stats : Comm.stats;
}

type error = [ `Decode_failure of Comm.stats ]
(** Peeling or verification failed; the transcript cost up to the failure is
    reported so benchmarks can account for retries. *)

val reconcile_known_d :
  seed:int64 -> d:int -> ?k:int -> alice:Ssr_util.Iset.t -> bob:Ssr_util.Iset.t -> unit ->
  (outcome, error) result
(** Corollary 2.2: one round, O(d log u) bits, O(n) time, succeeds with
    probability 1 - 1/poly(d) when [d] bounds the true difference. The
    message carries the IBLT body plus a 64-bit whole-set hash used to
    detect checksum failures (§2's "hash of each of the sets" guard).
    [k] is the number of IBLT hash functions (default 4). *)

val reconcile_unknown_d :
  seed:int64 -> ?k:int -> ?estimator_shape:Ssr_sketch.L0_estimator.shape ->
  ?headroom:int -> alice:Ssr_util.Iset.t -> bob:Ssr_util.Iset.t -> unit ->
  (outcome, error) result
(** Corollary 3.2: two rounds. Bob sends an l0 estimator of his set; Alice
    merges, queries, multiplies by [headroom] (default 2) to absorb the
    estimator's constant factor, and runs the known-d protocol. *)

val reconcile_robust :
  seed:int64 -> ?k:int -> ?initial_d:int -> ?max_attempts:int ->
  alice:Ssr_util.Iset.t -> bob:Ssr_util.Iset.t -> unit ->
  (outcome, error) result
(** Repeated doubling until the decode verifies (the standard trick from
    Corollary 3.6); each attempt adds a round. A convenience for
    applications that need an answer rather than a fixed round budget. *)

val reconcile_salvage :
  seed:int64 -> ?k:int -> ?initial_d:int -> ?max_attempts:int -> ?stash_capacity:int ->
  alice:Ssr_util.Iset.t -> bob:Ssr_util.Iset.t -> unit ->
  (outcome, error) result
(** Salted-rehash reconciliation with partial-decode salvage: attempt [i]
    re-derives the whole hash schedule from
    {!Ssr_util.Hashing.attempt_seed}[ ~seed ~attempt:i], keeps everything a
    stalled peel did extract, stashes the stuck core
    ({!Ssr_sketch.Iblt_stash}), and sizes the next table for the remaining
    difference only — shrinking with progress instead of doubling from
    scratch. [initial_d] (default 4) seeds the bound, [max_attempts]
    (default 8) bounds the salted attempts, [stash_capacity] (default 256
    cells) bounds the stash. Every success is whole-set-hash verified; a
    salvaged phantom key is removed by a later attempt (it reappears in the
    shipped difference), so the result is never silently corrupt. *)

(** {2 Driver-facing salvage machinery}

    The escalation driver in [lib/transport] embeds salvage attempts in its
    own retry/backoff/deadline loop, so the per-attempt state is exposed:
    a working copy of Bob's set, the residual stash and the remaining
    difference bound. *)

type salvage
(** Mutable cross-attempt salvage state. *)

val salvage_init :
  ?stash_capacity:int -> d:int -> bob:Ssr_util.Iset.t -> unit -> salvage
(** Fresh state with remaining-difference bound [max 4 d]. *)

val salvage_remaining : salvage -> int
(** The current remaining-difference bound (the [d] the next attempt will
    size its table for). *)

val salvage_keys : salvage -> int
(** Total keys recovered so far via partial decodes and the stash. *)

val run_salvage_attempt :
  comm:Comm.t -> seed:int64 -> attempt:int -> k:int -> sv:salvage ->
  alice:Ssr_util.Iset.t ->
  (outcome, [ `Progress ]) result
(** One salted attempt threaded through a caller-supplied recorder.
    [`Progress] means "not done yet, retry under the next salt" — the
    state has absorbed whatever the attempt recovered (and doubles its
    bound after two consecutive zero-progress attempts), and Bob's
    {!Comm.request_salvage} carrying the new bound is on [comm]. The caller
    owns attempt numbering, retry accounting and backoff. An [Ok] outcome
    reports set differences relative to the original [bob]. *)

val run_known_d :
  comm:Comm.t -> seed:int64 -> d:int -> k:int ->
  alice:Ssr_util.Iset.t -> bob:Ssr_util.Iset.t ->
  (outcome, [ `Decode_failure ]) result
(** One known-d exchange threaded through a caller-supplied recorder, for
    drivers that embed it in a longer transcript (retry loops, transports).
    The outcome's stats are cumulative for [comm]. *)

val run_unknown_d :
  comm:Comm.t -> seed:int64 -> k:int -> ?estimator_shape:Ssr_sketch.L0_estimator.shape ->
  headroom:int -> alice:Ssr_util.Iset.t -> bob:Ssr_util.Iset.t -> unit ->
  (outcome, [ `Decode_failure ]) result
(** {!reconcile_unknown_d} threaded through a caller-supplied recorder. *)

val set_hash : seed:int64 -> Ssr_util.Iset.t -> int
(** The whole-set verification hash used by the protocols (canonical
    serialization hashed to 62 bits). *)
