(** Simulated reconciliation client for the server protocol.

    Thousands of clients must be cheap to set up, so per-shard work is
    shared: a {!Base.t} holds the client-side cell prefix, L0 estimator
    and XOR hash of a reference member set, built once per shard. Each
    client is the base plus a small delta ([added] keys disjoint from
    the base, [removed] keys drawn from it): its cells for a window are
    the base's plus one signed walk per delta key, its L0 a merge-copy
    with the delta applied (removals cancel the base's [S2] count with an
    [S1] update), its hash two XOR folds.

    The session state machine is driven entirely by virtual-clock events
    and {!on_receive}: send [Req] (with retransmission timers for lossy
    links), honour [Reject] by retrying after the server's
    [retry_after_us], and take each [Sketch] window of the pinned prefix
    in turn. A window must start where the last one ended; the client
    subtracts its own cells, absorbs the difference into a rateless
    decoder with an empty pool, and accepts a decode only if it
    reproduces the snapshot's XOR hash and cardinality. Otherwise it asks
    for [More] (the server doubles the delivered prefix), and once the
    prefix's N cells are in without a verified decode it gives up. The
    session closes with [Done]/[Fin]. All messages are idempotent on both
    sides, so duplicated or retransmitted packets are harmless. *)

module Base : sig
  type t

  val create :
    server_seed:int64 ->
    shard:int ->
    rung_caps:int array ->
    check_bits:int ->
    members:int array ->
    t
  (** Build the shared client-side structures for a shard whose
      reference set is [members] (distinct, non-negative): the prefix of
      {!Shard.prefix_cells}[ ~rung_caps ~check_bits] cells in one pass
      over [members]. Raises [Invalid_argument] where
      {!Shard.prefix_cells} does. *)
end

type outcome =
  | Pending
  | Succeeded of { latency_us : int; diff : int; rejects : int; escalations : int }
      (** [escalations]: [More] requests sent. *)
  | Failed of string

type t

val create :
  clock:Ssr_transport.Clock.t ->
  send:(Bytes.t -> unit) ->
  base:Base.t ->
  session:int ->
  added:int array ->
  removed:int array ->
  unit ->
  t
(** A client whose set is [base + added - removed]. [send] puts bytes on
    the client->server wire. [added] must be disjoint from the base and
    [removed] a subset of it. An unanswered [Req] is retransmitted every
    500 ms, and the session fails after 10 retransmissions. *)

val start : t -> unit
(** Send the opening [Req] at the current virtual time. *)

val on_receive : t -> Bytes.t -> unit
(** Feed server->client bytes (hostile input tolerated: unparseable or
    out-of-protocol packets are dropped). *)

val outcome : t -> outcome

val recovered_diff : t -> (int list * int list) option
(** After success: (client-only, server-only) keys, each sorted. *)

val mutate : t -> add:bool -> key:int -> unit
(** Fire-and-forget write-path message ([Mutate]) on this connection. *)

val last_mut_ack : t -> int option
(** Version from the most recent [Mut_ack], if any. *)
