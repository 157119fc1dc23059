(** Trace-driven load generator: thousands of simulated clients and a
    seeded mutation stream against one server, all over per-client
    simulated networks sharing one virtual clock.

    Everything — shard contents, client deltas, arrival times, network
    behaviour, mutation toggles — is a pure function of [cfg.seed], so a
    run is replayable and its per-client wire transcripts (digested into
    {!report.transcript_digest}) are byte-identical at any domain pool
    size.

    Mutations toggle membership inside a bounded per-shard hot pool
    (disjoint from the base sets and the client deltas by key-range
    construction), so server/client drift stays under
    [hot_pool + client_delta] and every session decodes well inside the
    prefix. The
    generator tracks ground-truth counts (effective mutations, completed
    sessions) that CI compares against the atomic metrics registry: a
    mismatch under [--domains N] means lost updates. *)

type cfg = {
  seed : int64;
  shards : int;
  shard_size : int;  (** Initial members per shard. *)
  clients : int;
  client_delta : int;  (** Per-client divergence (half added, half removed). *)
  hot_pool : int;  (** Per-shard key pool the mutation stream toggles. *)
  mutation_batches : int;
  mutation_batch_size : int;
  arrival_gap_us : int;  (** Mean inter-arrival spacing of session starts. *)
  latency_us : int;
  jitter_us : int;
  drop : float;
  max_sessions_per_shard : int;
  admissions_per_round : int;
  retry_after_us : int;
  deadline_us : int;  (** Virtual-time budget for the whole run. *)
}

val default_cfg : seed:int64 -> cfg
(** 8 shards x 4096 elements, 1000 clients, 2 ms +- 0.5 ms links. *)

val smoke_cfg : seed:int64 -> cfg
(** Scaled down for CI smoke runs (hundreds of clients). *)

type report = {
  clients : int;
  completed : int;
  failed : int;
  rejected_tries : int;  (** Backpressure rejections clients absorbed. *)
  escalations : int;
  mutations_applied : int;  (** Ground truth: effective mutations, fill included. *)
  elapsed_us : int;  (** Virtual time consumed. *)
  sessions_per_sec : float;  (** Completed sessions per virtual second. *)
  p50_us : int;
  p99_us : int;
  wire_bytes : int;  (** Bytes of every packet copy in every client's transcript, both ways. *)
  transcript_digest : string;  (** MD5 over every client's wire transcript. *)
}

val run : cfg -> report
