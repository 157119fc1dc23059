(** Reliable, ordered delivery over a simulated lossy network.

    A stop-and-wait-with-stragglers ARQ: every payload handed to the
    {!transport} becomes a DATA packet with a sequence number, CRC-framed
    ({!Frame}) so any channel damage to header or payload is detected and
    the packet discarded as lost. The receiver delivers strictly in order,
    buffers out-of-order arrivals, suppresses duplicates (channel
    duplication and our own retransmissions look identical on the wire) and
    answers every DATA with a cumulative ACK. The sender retransmits an
    unacknowledged packet on a timeout that backs off exponentially up to a
    cap, with deterministic seeded jitter so replays reproduce the exact
    retransmission schedule.

    [transmit] presents the {!Ssr_setrecon.Comm.transport} seam: it blocks
    (in virtual time — {!Clock.run_until}) until its own payload has been
    delivered in order at the receiver, then returns it; if the per-message
    deadline or the externally imposed {!set_hard_deadline} passes first it
    returns [None], exactly the [`Lost] signal the protocols already handle.
    A timed-out payload is {e not} abandoned: it stays in the retransmit
    queue, because in-order delivery of every later payload depends on it —
    the caller sees a timeout, the wire sees TCP-like head-of-line
    persistence. App-level deliveries that were timed out by their sender
    and picked up by a later transmit are counted as [stale_deliveries].

    Virtual time only advances inside [transmit], so a fully partitioned
    network costs nothing real: the clock jumps to the deadline and the
    caller gets a typed timeout, never a hang. *)

type config = {
  rto_us : int;  (** Initial retransmission timeout. *)
  rto_cap_us : int;  (** Backoff cap: timeout n is [min cap (rto * 2^n)]. *)
  rto_jitter_us : int;  (** Seeded uniform jitter in [\[0, jitter\]] added per timeout. *)
  msg_deadline_us : int;  (** Per-[transmit] virtual-time budget. *)
}

val default_config : config
(** rto 30ms, cap 240ms, jitter 10ms, per-message deadline 2s (virtual). *)

type stats = {
  data_sent : int;  (** First transmissions of a payload. *)
  retransmissions : int;
  acks_sent : int;
  duplicates_suppressed : int;  (** DATA arrivals already delivered or buffered. *)
  corrupt_discarded : int;  (** Arrivals rejected by the frame CRC. *)
  stale_deliveries : int;
  timeouts : int;  (** [transmit] calls that hit a deadline. *)
  wire_bytes : int;  (** Every byte put on the network, ACKs and retransmissions included. *)
}

type t

val create : ?config:config -> clock:Clock.t -> network:Network.t -> seed:int64 -> unit -> t
(** Builds the ARQ endpoints over [network] and installs their receive
    handler ({!Network.on_deliver}). [seed] drives only retransmission
    jitter. *)

val clock : t -> Clock.t
val network : t -> Network.t
val stats : t -> stats

val set_hard_deadline : t -> int option -> unit
(** Absolute virtual-time cap applied (in addition to the per-message
    deadline) to every subsequent [transmit]; [None] clears it. The
    resilient driver uses this for per-attempt and whole-run deadlines. *)

val transport : t -> Ssr_setrecon.Comm.transport
(** The seam every protocol runs over unchanged. [overhead_bits] accounts
    the frame plus the 5-byte ARQ header of the first transmission;
    retransmission and ACK traffic shows up in [stats.wire_bytes]. *)

val delivered_log : t -> (Ssr_setrecon.Comm.direction * int * Bytes.t) list
(** Every in-order app-level delivery as [(direction, seq, payload)],
    oldest first — the ground truth for exactly-once / in-order tests. *)
