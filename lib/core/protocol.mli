(** Unified front end over the four set-of-sets reconciliation protocols.

    Benchmarks, examples and applications pick a protocol by name and get a
    uniform result type; see the individual modules for the per-protocol
    parameters and guarantees. Every protocol is two steps ({!alice},
    {!bob}) that share only public {!params} and delivered bytes; the
    entry points alone hold both collections, and run the steps through
    {!Ssr_setrecon.Comm.drive}. *)

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
(** {!run_unknown} on a fresh recorder. *)

type stream_outcome = { delta : Parent.delta; stats : Ssr_setrecon.Comm.stats }

type params = { seed : int64; enc_seed : int64; d : int; u : int; h : int; s : int }
(** The public parameters of one known-d attempt: [enc_seed] salts the
    nested kinds' child encodings, [s] bounds a parent's child count and
    [d_hat] is [min d s]. *)

val alice :
  ?memo:Enc_cache.t -> kind -> params -> Parent.stream -> unit Ssr_setrecon.Comm.party
(** Alice's step with each protocol's default tuning: {!Naive.alice},
    {!Cascade.alice} on {!Iblt_of_iblts.plan} (k = 4) or {!Cascade.plan}
    (k = 3), or {!Multiround.alice}. *)

val bob :
  ?memo:Enc_cache.t -> kind -> params -> Parent.stream ->
  (Parent.delta, [ `Decode_failure ]) result Ssr_setrecon.Comm.party
(** Bob's step; he finishes with the delta he learned. *)

val doubling_params : kind -> seed:int64 -> u:int -> h:int -> s:int -> d:int -> params
(** The attempt at bound [d] of {!run_unknown}'s doubling (Iblt_of_iblts,
    Cascade). *)

val run_known_stream :
  ?memo:Enc_cache.t -> kind -> comm:Ssr_setrecon.Comm.t -> seed:int64 -> enc_seed:int64 option ->
  d:int -> u:int -> h:int -> alice:Parent.stream -> bob:Parent.stream ->
  (stream_outcome, [ `Decode_failure ]) result
(** One known-d attempt on a caller-supplied recorder: {!alice} and {!bob}
    with [s = max 2 bob.length]. Sketches are built from the
    {!Parent.stream} views in bounded memory, every transcript's 8-byte
    guard is the order-independent {!Parent.stream_hash}, and the result
    is the O(d) delta Bob learned; its stats are cumulative for [comm].
    [enc_seed] (default: [seed]) pins the child-encoding salt of
    Iblt_of_iblts and Cascade across attempts, so a retry driver can pass
    one [memo] to every attempt of a request and reuse earlier encodings;
    a single attempt is cheaper without one. The other kinds ignore
    both. *)

val run_known :
  ?memo:Enc_cache.t -> kind -> comm:Ssr_setrecon.Comm.t -> seed:int64 -> enc_seed:int64 option ->
  d:int -> u:int -> h:int -> alice:Parent.t -> bob:Parent.t ->
  (outcome, [ `Decode_failure ]) result
(** {!run_known_stream} over {!Parent.stream_of_t} views, with the delta
    applied to [bob] ({!Parent.apply_delta}). The transport-aware driver
    (lib/transport's Resilient) uses this to run several attempts over one
    channel transcript. *)

val run_unknown :
  kind -> comm:Ssr_setrecon.Comm.t -> seed:int64 -> u:int -> h:int ->
  alice:Parent.t -> bob:Parent.t -> (outcome, [ `Decode_failure ]) result
(** The unknown-d variant on a caller-supplied recorder. Naive (Thm 3.4)
    and Multiround (Thm 3.10) open with Bob's estimator round.
    Iblt_of_iblts and Cascade run the doubling of Cor 3.6 / 3.8
    ({!Ssr_setrecon.Comm.retry_doubling}): attempts at d = 1, 2, 4, ... up
    to 2^22, with Bob's 8-bit [retry] message and a tick of the
    [proto.<name>.retries] counter after each failure. *)

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

val report :
  kind -> (unit -> (outcome, error) result) -> (outcome * cost_report, error * cost_report) result
(** A run of [kind] (e.g. [reconcile_known kind ...]) plus its
    {!cost_report}; failures carry a report too (a failed run still spent
    its communication). *)
