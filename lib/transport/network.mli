(** Deterministic simulated network: latency, reordering, partitions.

    A network sits between the two endpoints and a shared virtual {!Clock}.
    Each packet handed to {!send} first passes through {!Channel}-style
    fault injection (drop, bit corruption, truncation, duplication), then
    every surviving copy is assigned a delivery time — base latency plus
    seeded uniform jitter, plus an extra hold-back delay for copies the
    reorder coin selects — and is scheduled on the clock; the handler
    installed with {!on_deliver} receives the (possibly damaged) bytes when
    virtual time reaches that point. During a partition window that blocks
    the packet's direction, everything is silently discarded.

    Everything — damage, latencies, reorder picks, and therefore the entire
    delivery schedule — is a pure function of [config.seed] and the sequence
    of [send] calls: replaying a seed against the same packet sequence
    replays byte-identical deliveries at identical virtual times. The full
    {!transcript} is recorded so tests can assert exactly that. *)

type direction = Ssr_setrecon.Comm.direction

type partition = {
  from_us : int;  (** Window start (inclusive), in virtual microseconds. *)
  until_us : int;  (** Window end (exclusive). *)
  blocks : [ `A_to_b | `B_to_a | `Both ];
}

type config = {
  seed : int64;  (** Drives faults, latency jitter and reorder picks. *)
  drop_rate : float;
  corrupt_rate : float;
  truncate_rate : float;
  duplicate_rate : float;
  duplicate_copies : int;
  latency_us : int;  (** Base one-way propagation delay. *)
  jitter_us : int;  (** Uniform extra delay in [\[0, jitter_us\]]. *)
  reorder_rate : float;  (** Per-copy probability of an extra hold-back. *)
  reorder_extra_us : int;  (** Hold-back delay of a reordered copy. *)
  partitions : partition list;
}

val config_with :
  ?drop:float -> ?corrupt:float -> ?truncate:float -> ?duplicate:float ->
  ?duplicate_copies:int -> ?latency_us:int -> ?jitter_us:int -> ?reorder:float ->
  ?reorder_extra_us:int -> ?partitions:partition list -> seed:int64 -> unit -> config
(** Defaults: all rates 0, [duplicate_copies] 2, [latency_us] 0,
    [jitter_us] 0, [reorder_extra_us] [4 * (latency_us + jitter_us)] (enough
    to land a held-back copy behind a retransmission), no partitions.
    Raises [Invalid_argument] on a rate outside [\[0, 1\]] (NaN included)
    or a negative [latency_us] or [jitter_us]. *)

(** One copy's fate, for the replay-determinism transcript. *)
type delivery = {
  index : int;  (** Network-wide send index of the packet. *)
  copy : int;
  direction : direction;
  sent_us : int;
  delivered_us : int;  (** [-1] when the copy never arrives. *)
  reordered : bool;
  partitioned : bool;  (** Discarded by a partition window. *)
  bytes : Bytes.t;  (** As delivered (damage applied); empty when dropped. *)
}

type t

val create : clock:Clock.t -> config -> t

val on_deliver : t -> (direction -> Bytes.t -> unit) -> unit
(** Install the receive handler (the ARQ layer); called from clock events. *)

val send : t -> direction -> label:string -> Bytes.t -> unit
(** Put a packet on the wire at the current virtual time. *)

val in_partition : t -> direction -> at_us:int -> bool

val faults : t -> Channel.event list
(** Damage the underlying fault channel injected, in occurrence order. *)

val transcript : t -> delivery list
(** Every copy of every packet sent so far, in send order. *)

val partition_drops : t -> int
(** Copies silently discarded by partition windows. *)

val reorder_count : t -> int
(** Copies that received the extra hold-back delay. *)
