(** IBLT-based set reconciliation (paper §2, Corollaries 2.2 and 3.2).

    One-way reconciliation: Bob ends up with Alice's set. Alice encodes her
    set in an O(d)-cell IBLT and transmits it; Bob deletes his elements and
    peels out the difference. With an unknown difference size, Bob first
    sends a set-difference estimator (Theorem 3.1), adding one round. A
    failed decode is answered as the paper answers it: a retry under fresh
    hash functions with a doubled bound (the first rung of
    [Ssr_transport.Resilient]), every result checked against the whole-set
    hash. The IBLT uses k = 4 hash functions. *)

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
  seed:int64 -> d:int -> alice:Ssr_util.Iset.t -> bob:Ssr_util.Iset.t -> unit ->
  (outcome, error) result
(** Corollary 2.2: one round, O(d log u) bits, O(n) time, succeeds with
    probability 1 - 1/poly(d) when [d] bounds the true difference. The
    message carries the IBLT body plus a 64-bit whole-set hash used to
    detect checksum failures (§2's "hash of each of the sets" guard). *)

val reconcile_unknown_d :
  seed:int64 -> alice:Ssr_util.Iset.t -> bob:Ssr_util.Iset.t -> unit -> (outcome, error) result
(** Corollary 3.2: two rounds. Bob sends an l0 estimator of his set; Alice
    merges, queries, doubles the estimate to absorb the estimator's
    constant factor, and runs the known-d protocol. *)

val run_known_d :
  comm:Comm.t -> seed:int64 -> d:int -> alice:Ssr_util.Iset.t -> bob:Ssr_util.Iset.t ->
  (outcome, [ `Decode_failure ]) result
(** One known-d exchange threaded through a caller-supplied recorder, for
    drivers that embed it in a longer transcript (retry loops, transports).
    The outcome's stats are cumulative for [comm]. *)

val run_unknown_d :
  comm:Comm.t -> seed:int64 -> alice:Ssr_util.Iset.t -> bob:Ssr_util.Iset.t -> unit ->
  (outcome, [ `Decode_failure ]) result
(** {!reconcile_unknown_d} threaded through a caller-supplied recorder. *)

val set_hash : seed:int64 -> Ssr_util.Iset.t -> int
(** The whole-set verification hash used by the protocols (canonical
    serialization hashed to 62 bits). *)
