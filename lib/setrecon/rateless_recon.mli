(** Rateless set reconciliation over the coded-cell stream of
    {!Ssr_sketch.Rateless}.

    The doubling first rung of [Ssr_transport.Resilient] escalates by
    shipping whole IBLTs: guess a size, transmit, fail, double, reship —
    one bad estimate or one lossy window wastes an entire sketch. Here
    Alice instead streams windows of coded cells (each a pure function of
    the shared seed and its index) and Bob ACKs each window; because every
    fresh cell carries new parity, a lost window is never retransmitted —
    the stream just moves forward — and communication converges to ~1.35x
    the true difference with no size negotiation.

    One cycle is [window A->B, ack B->A] (two {!Comm} rounds). The window
    size doubles each cycle, so reaching difference [d] takes
    [O(log d)] cycles against doubling's ladder of full-sketch attempts.
    Both parties keep their walk cursors across cycles, so a stream of [N]
    cells costs each side one walk of its [n] elements, and Bob one of
    each peeled key: O((n + d) log N) steps in all, not that much a
    cycle. Keys are the sets' integers; cells are 16 bytes.
    Completion requires both a clean peel and a whole-set hash match (the
    hash rides in every window header), so a false decode candidate — or a
    peeled phantom key — is never silently accepted; the stream simply
    continues. All messages go through {!Comm.xfer}, so an attached
    transport carries (and can damage or drop) exactly the wire bytes.

    Wire formats (little-endian, parsed totally — hostile bytes yield
    [None], never an exception, and claimed counts are validated against
    the actual byte length before any allocation):
    - window: [u32 lo | u32 count | int62 alice_hash | count cells], each
      {!Ssr_sketch.Rateless.cell_bytes} = 16 bytes
    - ack: [u8 done (0|1) | u32 have] — exactly 5 bytes; [have] is the
      receiver's {!Ssr_sketch.Rateless.next_index}.

    Alice reads only the ACK's done flag; [have] rides along for a sender
    that streams only what the receiver lacks (ROADMAP item 13). So a lost
    ACK that was not done costs its 5 bytes, but a lost done-ACK costs one
    more doubled window, of up to 8 192 cells (128 KB), before Bob's
    re-ACK ends the stream. *)

val run :
  comm:Comm.t -> seed:int64 -> ?initial_window:int -> ?max_cells:int ->
  alice:Ssr_util.Iset.t -> bob:Ssr_util.Iset.t -> unit ->
  (Set_recon.outcome, [ `Decode_failure ]) result
(** One-way rateless reconciliation through [comm]: Bob ends up with
    Alice's set. [initial_window] (default 32) cells in the first window,
    doubling per cycle; [max_cells] (default 65536) bounds the stream
    (exceeding it is a [`Decode_failure], as is an unserviceable
    transport). The outcome's stats are cumulative for [comm]. *)

(** {2 Wire codecs}

    Exposed for the hostile-byte totality suite; protocol users never need
    them. *)

val encode_window : lo:int -> alice_hash:int -> cells:Bytes.t -> Bytes.t
(** [cells] is a packed window as produced by {!Ssr_sketch.Rateless.cells};
    its length must be a multiple of the cell width (the count field is
    derived from it; [Invalid_argument] otherwise). [alice_hash] must be a
    non-negative 62-bit value. *)

val window_of_bytes_opt : Bytes.t -> (int * int * Bytes.t) option
(** [(lo, alice_hash, cells)] — total: [None] on truncation, trailing
    bytes, a count that disagrees with the actual byte length, or a window
    extending past {!Ssr_sketch.Rateless.max_index}. *)

val encode_ack : done_:bool -> have:int -> Bytes.t

val ack_of_bytes_opt : Bytes.t -> (bool * int) option
(** Total: exactly 5 bytes, done flag strictly 0 or 1. *)
