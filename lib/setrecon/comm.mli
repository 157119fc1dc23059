(** Communication accounting and the transport seam.

    Every protocol in this library threads a recorder through its message
    exchanges and reports honest costs: bits are the sizes of the actual
    serialized messages, and a round is a maximal run of messages in one
    direction (the paper counts "the number of total messages sent", e.g. a
    one-round protocol is a single Alice-to-Bob transmission). The benchmark
    tables (EXPERIMENTS.md) are produced from these numbers.

    There is one message function, {!xfer}: a message enters the transcript
    only as the bytes one party sends, and the receiver works from a total
    parse of the bytes delivered to it. A recorder can carry a {e
    transport}: a function that takes the serialized payload and returns
    what the receiver observes (possibly nothing, if the message was lost or
    rejected by the framing checksum). With no transport attached the
    payload is delivered verbatim and only accounting happens, so the
    in-memory execution and the over-a-channel execution share one code
    path. Control messages — Bob's {!request_retry} and {!request_salvage}
    — are [xfer]s too, so they cross any attached transport and can be
    lost. The transport layer lives in [lib/transport]; this hook is a
    plain closure so the dependency points only that way. *)

type direction = A_to_b | B_to_a

type message = { round : int; direction : direction; label : string; bits : int }

type t
(** A mutable transcript recorder. *)

type stats = {
  rounds : int;
  bits_total : int;
  bits_a_to_b : int;
  bits_b_to_a : int;
  messages : message list;  (** In transmission order (nondecreasing rounds). *)
}

type transport = {
  transmit : direction -> label:string -> Bytes.t -> Bytes.t option;
      (** The payload the receiver observes intact, or [None] when the
          message was dropped, truncated or rejected by the frame check. *)
  overhead_bits : int;
      (** Per-message framing overhead, added to the accounted payload
          bits of every {!xfer} while this transport is attached. *)
}

val create : unit -> t

val set_transport : t -> transport -> unit
(** Attach a transport to the recorder; every subsequent message goes
    through it. *)

val xfer : t -> direction -> label:string -> Bytes.t -> (Bytes.t, [ `Lost ]) result
(** Record and transmit a message. Accounts
    [8 * length + overhead] bits, then hands the payload to the attached
    transport; [Error `Lost] means the receiver observed nothing usable
    (timeout/NACK in a real deployment). With no transport attached this is
    [Ok payload]. Consecutive messages in the same direction share a round;
    a direction switch starts a new one. *)

val xfer_guarded :
  t -> label:string -> Ssr_sketch.Iblt.t array -> guard:int ->
  (Ssr_sketch.Iblt.t array * int) option
(** The one "tables ‖ 8-byte guard" message, A to B, of every IBLT stack:
    the [tables]' bodies in order, then [guard] (a whole-object hash) as 8
    little-endian bytes. It returns what Bob parses from the delivered
    bytes: fresh tables re-sliced by the tables' public parameters, and the
    guard. [None] when the message was lost or the bytes have the wrong
    length or a guard outside 62 bits; total, never raises. *)

val xfer_estimator :
  ?shape:Ssr_sketch.L0_estimator.shape -> t -> label:string -> seed:int64 ->
  alice:int array -> bob:int array -> int option
(** The estimator round of the unknown-d variants (Theorem 3.1), B to A:
    Bob sends an l0 estimator of his keys [bob]; Alice parses it, merges
    her own over [alice] and returns the estimated difference. [None] when
    the estimator was lost, has the wrong length or reads out of the
    shape's range ({!Ssr_sketch.L0_estimator.query_opt}), so that damage
    cannot size a table beyond any difference the estimator measures. *)

val request_retry : t -> unit
(** Bob's 1-byte ["retry"] request, B to A: his attempt failed. *)

val request_salvage : t -> bound:int -> unit
(** Bob's 4-byte ["salvage-retry"] request, B to A, carrying his
    residual-difference bound as a little-endian u32. The caller of either
    request goes on whether or not it arrives: Alice sends the next attempt
    when it reaches her and on her own timeout when it is lost. *)

val stats : t -> stats

val run :
  (t -> ('a, [ `Decode_failure ]) result) -> ('a, [> `Decode_failure of stats ]) result
(** Run an exchange on a fresh recorder; a failure carries its stats. *)

val retry_doubling :
  t -> retries:Ssr_obs.Metrics.counter -> d:int -> stop:(attempt:int -> d:int -> bool) ->
  (attempt:int -> d:int -> ('a, [ `Decode_failure ]) result) ->
  ('a, [> `Decode_failure of stats ]) result
(** The unknown-d driver (Corollary 3.6's repeated doubling): run
    [attempt ~attempt:0 ~d], and after each failure bump [retries], send
    Bob's {!request_retry} on [t] and try again with the attempt
    number incremented and [d] doubled. Before every attempt [stop] is asked
    whether the ladder is exhausted, in which case the result is a decode
    failure carrying [t]'s cumulative stats. The caller derives each
    attempt's seed from [~attempt] or [~d]. *)

val merge_stats : stats -> stats -> stats
(** Combine transcripts of sub-protocols that run in parallel: bits add and
    [rounds] is the max of the two (a parallel composition is as long as its
    longest component). [messages] is a transmission-order interleaving —
    the two transcripts merged by round number, ties keeping the first
    operand's messages first — so a merged transcript still satisfies the
    nondecreasing-round invariant of {!stats}. *)

val per_round_bits : stats -> (int * int * int) list
(** [(round, bits A->B, bits B->A)] per round, rounds numbered from 1 with no
    gaps (a round all of whose messages went one way reports 0 for the other
    direction). This is the per-round payload accounting the observability
    reports and EXPERIMENTS.md's communication tables are built from. *)

val pp_stats : Format.formatter -> stats -> unit

val show_stats : stats -> string
(** [pp_stats] rendered to a string (for [Printf] users). *)
