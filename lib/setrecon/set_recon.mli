(** IBLT-based set reconciliation (paper §2, Corollaries 2.2 and 3.2).

    One-way reconciliation: Bob ends up with Alice's set. Alice encodes her
    set in an O(d)-cell IBLT and transmits it; Bob deletes his elements and
    peels out the difference. With an unknown difference size, Bob first
    sends a set-difference estimator (Theorem 3.1), adding one round. A
    failed decode is answered as the paper answers it: a retry under fresh
    hash functions with a doubled bound ({!reconcile_robust} here, and the
    first rung of [Ssr_transport.Resilient] over a faulty link), every
    result checked against the whole-set hash. *)

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
