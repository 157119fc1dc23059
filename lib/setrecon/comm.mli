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
    path. The one control message, Bob's {!request_retry}, is an [xfer]
    too, so it crosses any attached transport and can be lost. The transport layer lives in [lib/transport]; this hook is a
    plain closure so the dependency points only that way. The set-of-sets
    stacks run each party apart as a {!party}; the shared codecs come in
    one half per party, which the plain-set stacks call around [xfer]. *)

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

type 'a party =
  | Send of string * Bytes.t * 'a party  (** Send a labelled payload, then go on. *)
  | Recv of ((Bytes.t, [ `Lost ]) result -> 'a party)  (** Wait for a delivery or a loss. *)
  | Done of 'a
(** One party of a two-party exchange, a state machine over the bytes
    delivered to it: whatever runs two parties moves only bytes. *)

val drive : t -> alice:'a party -> bob:'b party -> 'b
(** Run Alice (A to B) and Bob (B to A) through {!xfer} on [t] until Bob is
    done. A message reaches its receiver only if it waits; Bob waiting
    while Alice has nothing to send is delivered [Error `Lost], a
    timeout. *)

val map : ('a -> 'b) -> 'a party -> 'b party
(** The same party, finishing with [f] of its result. *)

val guarded : Ssr_sketch.Iblt.t array -> guard:int -> Bytes.t
(** Alice's half of the one "tables ‖ 8-byte guard" message of every IBLT
    stack: the tables' bodies, then [guard] (a whole-object hash) as 8
    little-endian bytes. *)

val parse_guarded :
  Ssr_sketch.Iblt.params array -> (Bytes.t, [ `Lost ]) result ->
  (Ssr_sketch.Iblt.t array * int) option
(** Bob's half: the tables sliced from the delivered bytes by parameters he
    derives himself, and the guard; [None] on a loss, a wrong length or a
    guard outside 62 bits. Total. *)

val sized :
  Ssr_sketch.Iblt.params -> (Bytes.t, [ `Lost ]) result -> Ssr_sketch.Iblt.params option
(** [prm] with [cells] read off the length of a one-table {!guarded}
    message that Alice sized from her estimate. [None] unless the cell
    count is whole, a multiple of [k] and at least [2k] (a size
    {!Ssr_sketch.Iblt.recommended_cells} can produce). *)

val estimator : seed:int64 -> int array -> Bytes.t
(** Bob's half of the estimator round of the unknown-d variants (Theorem
    3.1): an l0 estimator of his keys, of the default shape. *)

val estimate : seed:int64 -> int array -> (Bytes.t, [ `Lost ]) result -> int option
(** Alice's half: merge her keys into the delivered estimator and query
    it. [None] when it was lost, has the wrong length or reads out of the
    shape's range ({!Ssr_sketch.L0_estimator.query_opt}), so damage cannot
    size a table beyond any difference the estimator measures. *)

val request_retry : t -> unit
(** Bob's 1-byte ["retry"] request, B to A: his attempt failed. The caller
    goes on whether or not it arrives: Alice sends the next attempt when it
    reaches her and on her own timeout when it is lost. *)

val stats : t -> stats

val run :
  (t -> ('a, [ `Decode_failure ]) result) -> ('a, [> `Decode_failure of stats ]) result
(** Run an exchange on a fresh recorder; a failure carries its stats. *)

val retry_doubling :
  t -> retries:Ssr_obs.Metrics.counter -> d:int -> stop:(attempt:int -> d:int -> bool) ->
  (attempt:int -> d:int -> ('a, [ `Decode_failure ]) result) ->
  ('a, [ `Decode_failure ]) result
(** The unknown-d loop (Corollary 3.6's repeated doubling): run
    [attempt ~attempt:0 ~d], and after each failure bump [retries], send
    Bob's {!request_retry} on [t] and try again with the attempt number
    incremented and [d] doubled, until [stop] says the ladder is
    exhausted. Each attempt's public parameters derive from [~attempt] or
    [~d], so Alice can follow the same schedule apart from Bob. *)

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

val show_stats : stats -> string
(** [pp_stats] rendered to a string (for [Printf] users). *)
