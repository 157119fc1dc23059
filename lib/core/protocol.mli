(** Unified front end over the four set-of-sets reconciliation protocols.

    Benchmarks, examples and applications pick a protocol by name and get a
    uniform result type; see the individual modules for the per-protocol
    parameters and guarantees. *)

type kind =
  | Naive  (** §3.1, Thm 3.3/3.4: child sets as monolithic wide keys. *)
  | Iblt_of_iblts  (** §3.2 Alg 1, Thm 3.5 / Cor 3.6. *)
  | Cascade  (** §3.2 Alg 2, Thm 3.7 / Cor 3.8. *)
  | Multiround  (** §3.3, Thm 3.9 / 3.10. *)

val all : kind list
val name : kind -> string

type outcome = {
  recovered : Parent.t;
  stats : Ssr_setrecon.Comm.stats;
}

type error = [ `Decode_failure of Ssr_setrecon.Comm.stats ]

val reconcile_known :
  kind -> seed:int64 -> d:int -> u:int -> h:int ->
  alice:Parent.t -> bob:Parent.t -> unit -> (outcome, error) result
(** Run the chosen protocol with a known bound [d] on the total number of
    element changes ([u], [h] size the direct encodings where needed;
    the naive protocol derives its d_hat as [min d s]): {!run_known} on a
    fresh recorder. *)

val reconcile_unknown :
  kind -> seed:int64 -> u:int -> h:int ->
  alice:Parent.t -> bob:Parent.t -> unit -> (outcome, error) result
(** Run the unknown-d variant. Naive (Thm 3.4) and Multiround (Thm 3.10)
    open with an estimator round. Iblt_of_iblts and Cascade run the
    repeated doubling of Cor 3.6 / 3.8: {!run_known_stream} attempts at
    d = 1, 2, 4, ... up to 2^22 on one recorder, each seeded from [seed]
    and the bound, with Bob's 8-bit [retry] message and a tick of the
    [proto.<name>.retries] counter after each failure. *)

type stream_outcome = { delta : Parent.delta; stats : Ssr_setrecon.Comm.stats }

val run_known_stream :
  ?memo:Enc_cache.t -> kind -> comm:Ssr_setrecon.Comm.t -> seed:int64 -> enc_seed:int64 option ->
  d:int -> u:int -> h:int -> alice:Parent.stream -> bob:Parent.stream ->
  (stream_outcome, [ `Decode_failure ]) result
(** One known-d attempt threaded through a caller-supplied recorder, with
    each protocol's default tuning: the single build path of every
    protocol. Iblt_of_iblts and Cascade run one engine,
    {!Cascade.run_plan}, on {!Iblt_of_iblts.plan} (k = 4) and
    {!Cascade.plan} (k = 3). Sketches are built from the {!Parent.stream}
    views in bounded memory, every transcript's 8-byte guard is the
    order-independent {!Parent.stream_hash}, and the result is the O(d)
    delta Bob learned. The outcome's stats are cumulative for [comm].
    [enc_seed] (default: [seed]) pins the child-encoding salt across
    attempts for the protocols with seeded child encodings
    (Iblt_of_iblts, Cascade). A retry driver that pins it can pass the
    same [memo] to every attempt of one request, so later attempts reuse
    the child encodings of earlier ones; a single attempt is cheaper
    without one. The other protocols ignore both (Naive's
    direct encodings are seedless and cheaper to write than to look up,
    Multiround's per-child tables are position-keyed). *)

val run_known :
  ?memo:Enc_cache.t -> kind -> comm:Ssr_setrecon.Comm.t -> seed:int64 -> enc_seed:int64 option ->
  d:int -> u:int -> h:int -> alice:Parent.t -> bob:Parent.t ->
  (outcome, [ `Decode_failure ]) result
(** {!run_known_stream} over {!Parent.stream_of_t} views, with the delta
    applied to [bob] ({!Parent.apply_delta}). The transport-aware driver
    (lib/transport's Resilient) uses this to run several attempts over one
    channel transcript. *)

val reconcile_amplified :
  kind -> seed:int64 -> d:int -> u:int -> h:int -> replicas:int ->
  alice:Parent.t -> bob:Parent.t -> unit -> (outcome, error) result
(** The paper's replication amplification (§3.2): run [replicas] independent
    instances in parallel (independent public coins) and let Bob output the
    first recovery that verifies against Alice's whole-collection hash. The
    failure probability drops exponentially in [replicas]; the transcript
    charges every replica's traffic, as a parallel execution must. *)

type cost_report = {
  protocol : string;  (** {!name} of the protocol that ran. *)
  stats : Ssr_setrecon.Comm.stats;
  per_round : (int * int * int) list;
      (** {!Ssr_setrecon.Comm.per_round_bits} of [stats]: per-round payload
          bits in each direction. *)
  metrics : Ssr_obs.Metrics.snapshot;
      (** Delta of the process-wide metrics over the run: IBLT insert/peel
          activity, estimator queries, transport counters — whatever the run
          touched. *)
}
(** Transcript-level cost accounting for one reconciliation run. *)

val reconcile_known_report :
  kind -> seed:int64 -> d:int -> u:int -> h:int ->
  alice:Parent.t -> bob:Parent.t -> unit ->
  (outcome * cost_report, error * cost_report) result
(** {!reconcile_known} plus its {!cost_report}; failures carry a report too
    (a failed run still spent its communication). *)

val reconcile_unknown_report :
  kind -> seed:int64 -> u:int -> h:int ->
  alice:Parent.t -> bob:Parent.t -> unit ->
  (outcome * cost_report, error * cost_report) result
(** {!reconcile_unknown} plus its {!cost_report}. *)
