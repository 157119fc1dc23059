(** Bounded ring buffer of structured trace events.

    Each event carries a layer ("comm", "net", "arq", "proto", ...), a name,
    optional key/value fields and a timestamp. The timestamp source is
    pluggable: the transport layer installs its {e virtual} clock when a
    simulated network is created, so traces of simulated runs are stamped in
    deterministic virtual microseconds; otherwise a process-local monotonic
    source is used. The buffer is a fixed-capacity ring — emitting is O(1)
    and old events are overwritten, never grown, so tracing can stay on in
    long runs without unbounded memory. A single mutex guards the ring, so
    a caller's domains may emit concurrently without losing or tearing
    events. *)

type field = I of int | S of string | F of float

type event = {
  t_us : int;
  layer : string;
  name : string;
  fields : (string * field) list;
}

val set_time_source : (unit -> int) -> unit
(** Install a timestamp source (microseconds). The transport layer points
    this at [Clock.now_us] so events over a simulated network carry virtual
    time. *)

val clear_time_source : unit -> unit
(** Back to the default source: CPU-monotonic microseconds ([Sys.time]). *)

val emit : layer:string -> ?fields:(string * field) list -> string -> unit
(** Append one event, overwriting the oldest if the ring is full. *)

val events : unit -> event list
(** Buffered events, oldest first. *)

val dropped : unit -> int
(** Events overwritten since the last {!clear} (so [dropped () +
    List.length (events ())] is the total emitted). *)

val clear : unit -> unit

val set_capacity : int -> unit
(** Resize the ring (clearing it). Default capacity is 4096 events. *)

val to_json : unit -> string
(** The buffer as a JSON array of event objects, oldest first. *)

val write_file : string -> unit
(** Write {!to_json} to a file (the [--trace-out] sink). *)
