(** The long-lived reconciliation daemon.

    A server owns an array of {!Shard.t} and a per-shard session table,
    and processes wire packets in {e pump rounds}: bytes arriving from
    any connection (via {!receive}, typically wired to a simulated
    {!Ssr_transport.Network}'s deliver handler) are enqueued, and a pump
    event scheduled at the same virtual instant drains the queue, groups
    the packets by shard — the shard id is in every packet header, so
    grouping is a pure function of the bytes — and processes the
    touched shards in shard order, each one's packets in arrival order.
    The round's replies are sent after the last shard, in (shard,
    arrival) order, so a session's transcript depends only on the bytes
    delivered and the virtual time.

    Sessions are pinned to an epoch {!Shard.snapshot} taken when their
    [Req] is admitted: later mutations never change what a running
    session is told. Admission answers with the window [\[0, w)] of the
    pinned prefix, [w = min N (max 32 (2 est))] for the L0 estimate
    [est] of the difference; each [More { have }] with [have] the end of
    the last window served is answered with [\[have, min N (2 have))],
    from the same snapshot. A [More] at or past N, or past what was
    served, closes the session with [Fin { ok = false }]. Admission is
    bounded per shard (session-table size and per-round admissions); an
    over-limit [Req] is answered with a deterministic [Reject] carrying
    [retry_after_us]. Every reply is cached per session, so a
    retransmitted request is answered idempotently. Idle sessions are
    swept by a periodic virtual-time event. *)

type config = {
  seed : int64;
  shards : int;
  rung_caps : int array;  (** The prefix holds twice the largest entry, in cells. *)
  check_bits : int;  (** Must be 32, the rateless cell's checksum width. *)
  max_sessions_per_shard : int;  (** Session-table bound per shard. *)
  admissions_per_round : int;  (** New sessions admitted per shard per pump round. *)
  retry_after_us : int;  (** Returned in [Reject]. *)
  session_idle_timeout_us : int;  (** Idle sessions are dropped after this. *)
  refresh_every : int;  (** Estimator epoch length, in mutations per shard. *)
  tainted_max : int;  (** Absorbed removals forcing an early estimator refresh. *)
}

val default_config : seed:int64 -> ?shards:int -> unit -> config

type t
type conn

val create : clock:Ssr_transport.Clock.t -> config -> t
(** Raises [Invalid_argument] on a bad shard count, session bound,
    [rung_caps] or [check_bits] ({!Shard.prefix_cells}). *)

val config : t -> config

val connect : t -> reply:(Bytes.t -> unit) -> conn
(** Register a client connection; [reply] carries server->client bytes
    (e.g. [Network.send net B_to_a]). *)

val conn_id : conn -> int

val receive : t -> conn -> Bytes.t -> unit
(** Hand the server raw (untrusted) bytes from this connection. Parsing
    and processing happen in the next pump round at the current virtual
    time; malformed packets are counted and dropped. *)

val apply : t -> shard:int -> Shard.mutation -> bool
(** Direct ingest of one mutation (the write path the load generator
    drives); O(k) sketch work. Raises [Invalid_argument] on a bad shard
    id. *)

val apply_batch : t -> (int * Shard.mutation) array -> int
(** Apply a batch, grouped by shard and applied in shard order;
    per-shard application order preserves batch order. Returns the
    number of effective (non-no-op) mutations. *)

val shard : t -> int -> Shard.t

val active_sessions : t -> int

type stats = {
  opened : int;
  completed : int;
  rejected : int;
  expired : int;
  failed : int;
  escalations : int;  (** [More] windows served. *)
}

val stats : t -> stats
