(** Endpoint-pair channels: a perfect one, and one that injects faults.

    A channel moves framed messages between the two reconciliation
    endpoints. The faulty variant damages traffic with independent,
    per-message probabilities of bit corruption, drop, truncation and
    duplication, all driven by a deterministic PRNG: the fault sequence is a
    pure function of the channel seed and the message sequence, every
    injected fault is recorded, and re-running with the same seed replays
    the identical faults — which is how a failing fuzz case is reproduced
    from nothing but its seed.

    {!transport} plugs a channel into a {!Ssr_setrecon.Comm.t} recorder:
    payloads are framed ({!Frame}), damaged, and unframed, and a frame that
    fails its checksum is reported to the protocol as a lost message.
    {!raw_transport} skips the framing so that damaged bytes reach the
    protocol parsers directly — that configuration exercises the parsers'
    own totality and the whole-set hash backstop. *)

type fault =
  | Dropped  (** The message never arrives. *)
  | Corrupted of { copy : int; bit : int }
      (** One bit, at this absolute index of delivery [copy], flipped. *)
  | Truncated of { copy : int; kept : int }
      (** Only the first [kept] bytes of delivery [copy] arrive. *)
  | Duplicated of { copies : int }
      (** The message arrives [copies] times (each copy damaged
          independently; corruption/truncation events carry the copy index
          they applied to). *)

type event = {
  index : int;  (** Sequence number of the affected message on this channel. *)
  direction : Ssr_setrecon.Comm.direction;
  label : string;  (** The protocol's label for the message. *)
  fault : fault;
}

type config = {
  seed : int64;  (** Drives every fault decision; replaying a seed replays the faults. *)
  drop_rate : float;
  corrupt_rate : float;
  truncate_rate : float;
  duplicate_rate : float;
  duplicate_copies : int;  (** Deliveries of a duplicated message; >= 2. *)
}

val perfect : config
(** All rates zero: delivers every message verbatim. *)

val config_with : ?drop:float -> ?corrupt:float -> ?truncate:float -> ?duplicate:float ->
  ?duplicate_copies:int -> seed:int64 -> unit -> config
(** Rates default to 0 and must lie in [\[0, 1\]]; [duplicate_copies]
    defaults to 2. Raises [Invalid_argument] on a rate outside the range
    (NaN included) or fewer than 2 copies. *)

val check_rate : string -> string -> float -> unit
(** [check_rate fn name r] raises [Invalid_argument] naming [fn] and the
    [name] rate unless [0 <= r <= 1] (so NaN raises). The check behind
    every fault rate of {!config_with} and [Network.config_with]. *)

type t

val create : config -> t

val messages_sent : t -> int

val bytes_sent : t -> int
(** Total bytes put on the wire so far: every transmitted copy counts in
    full (a dropped or truncated message was still sent whole; a
    duplicated one traverses once per copy). Framed transports count frame
    overhead because they transmit the framed bytes. *)

val events : t -> event list
(** Every fault injected so far, in occurrence order. *)

val transmit : t -> Ssr_setrecon.Comm.direction -> label:string -> Bytes.t -> Bytes.t list
(** Push raw bytes through the channel: the list of deliveries the receiver
    observes — empty when dropped, [duplicate_copies] entries when
    duplicated, each entry possibly corrupted or truncated. The input buffer
    is never mutated. *)

val transport : t -> Ssr_setrecon.Comm.transport
(** Framed transport: {!Frame.encode}, {!transmit}, then the first delivery
    that passes {!Frame.decode} (or [None] when none does). *)

val raw_transport : t -> Ssr_setrecon.Comm.transport
(** Unframed transport: the first delivery's bytes, damage and all, go
    straight to the protocol parser. Zero per-message overhead. *)
