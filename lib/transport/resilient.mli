(** Self-healing reconciliation over an unreliable transport.

    The driver runs a reconciliation protocol across a {!link} — either a
    bare faulty {!Channel} (instant, in-order delivery with byte damage) or
    a full simulated network stack ({!Clock} + {!Network} + {!Arq}: latency,
    reordering, duplication-after-delay and partitions, with ARQ providing
    ordered at-most-once delivery) — and turns transport faults into
    bounded, structured recovery:

    - {b detection} — frame CRCs reject damaged messages before the
      protocol sees them, and each protocol's whole-set hash rejects any
      result assembled from damage the CRC missed;
    - {b bounded retry} — a failed attempt triggers a retry with a doubled
      difference bound under a fresh per-attempt salt
      ({!Ssr_util.Hashing.attempt_seed}), so no hash schedule — not even
      one an adversary ground keys against — is tried twice (the fresh
      hash functions and doubled bound of Cor 3.6 / 3.8, checked by the
      whole-set hash of §2). A clean decode failure is retried at once,
      as soon as Bob's 1-byte retry request has crossed: the table was too
      small, the link is fine. Only when the failed attempt or its retry
      request lost a message (an ARQ transmit hit its deadline) does the
      driver back off before the next attempt (capped doubling with
      deterministic jitter), letting in-flight stragglers drain. The retry
      request crosses the link like any message, paying its frame and a
      one-way trip, and may be lost: Alice then retries on her own timeout,
      so a lost request never ends the run;
    - {b graceful degradation} — when the retry budget is exhausted the
      driver falls back to a direct full transfer of Alice's data, itself
      hash-verified and retried within the same budget;
    - {b deadlines} — on a network link every attempt and the whole run can
      carry a virtual-time deadline; exceeding the run deadline yields the
      typed [`Deadline_exceeded] failure (with the full report), never a
      hang, because virtual time only advances while the ARQ is pumping
      events.

    Every outcome carries a {!report} of the attempts made, the faults
    injected during this run, the cumulative transcript cost, and — on a
    network link — the virtual-time accounting (elapsed time,
    retransmissions, partition exposure). The driver never returns silently
    corrupted data: the result is either verified-correct or a typed
    failure. All behaviour is a pure function of the seeds: replaying a
    failing run's seeds replays its faults, latencies, retransmissions and
    backoffs exactly. *)

type link
(** Where the bytes go: a faulty channel or a simulated network. *)

val over_channel : ?framed:bool -> Channel.t -> link
(** [framed] (default true) wraps every message in a {!Frame}; [false]
    exposes the protocol parsers to raw channel damage. *)

val over_network : Arq.t -> link
(** Run over an ARQ endpoint pair on a simulated network. Messages are
    always framed (the ARQ header needs integrity protection). *)

type attempt = {
  number : int;  (** 0-based, across reconciliation and direct attempts. *)
  d : int;  (** Difference bound of a reconciliation attempt; 0 when [direct]. *)
  direct : bool;  (** A degraded full-transfer attempt rather than reconciliation. *)
  ok : bool;
  elapsed_us : int;
      (** Virtual time this attempt's run took, booked when it returns: Bob's
          retry request and any backoff after a failure are not part of it
          (0 on a channel link). *)
}

(** Virtual-time accounting of a network-link run ([None] on a channel
    link). All counters are deltas over this run, so an [Arq.t] may be
    reused across runs. *)
type timing = {
  elapsed_us : int;  (** Whole-run virtual time, retry requests and backoffs included. *)
  retransmissions : int;
  arq_timeouts : int;  (** Transmits that hit a per-message or imposed deadline. *)
  duplicates_suppressed : int;
  partition_drops : int;  (** Copies a partition window swallowed: partition exposure. *)
  reordered : int;
  backoff_us : int;
      (** Virtual time spent backing off between attempts; 0 unless an
          attempt or its retry request lost a message. *)
  wire_bytes : int;  (** Bytes on the wire including retransmissions and ACKs. *)
}

type report = {
  attempts : attempt list;  (** In execution order. *)
  degraded : bool;  (** Whether the driver fell back to direct transfer. *)
  faults : Channel.event list;
      (** Faults injected during the run (on a network link, only this
          run's — the log delta since the driver started). *)
  stats : Ssr_setrecon.Comm.stats;  (** Cumulative, including retries. *)
  wire_bytes : int;
      (** Total bytes this run put on the wire, on either link kind: the
          ARQ's wire counter (retransmissions and ACKs included) on a
          network link, the channel's sent-byte counter (every copy, frame
          overhead included) on a channel link. Present in failure reports
          too, so the cost of a [`Deadline_exceeded] under one strategy is
          comparable to another's. *)
  timing : timing option;
}

type error = [ `Transport_failure of report | `Deadline_exceeded of report ]
(** [`Transport_failure]: attempt budget exhausted, including the
    direct-transfer fallback. [`Deadline_exceeded]: the whole-run
    virtual-time deadline passed first. *)

(** What the ladder's first rung runs. [Doubling] ships whole IBLTs with a
    doubling difference bound ({!Ssr_setrecon.Set_recon.run_known_d} per
    attempt). [Rateless] streams coded-cell windows with cumulative
    peel-progress ACKs ({!Ssr_setrecon.Rateless_recon}): no size to guess,
    and lost windows cost only their bytes because every fresh cell is
    useful — the graceful-degradation choice for unknown [d] on lossy
    links. Either way each attempt runs under a fresh attempt salt, and
    the direct-transfer rung below is unchanged. *)
type strategy = Doubling | Rateless

val reconcile_set :
  link:link -> seed:int64 -> ?strategy:strategy -> ?initial_d:int -> ?max_attempts:int ->
  ?attempt_deadline_us:int -> ?run_deadline_us:int ->
  alice:Ssr_util.Iset.t -> bob:Ssr_util.Iset.t -> unit ->
  (Ssr_util.Iset.t * report, error) result
(** Plain set reconciliation (Bob learns Alice's set) over the link.
    [strategy] (default [Doubling]) selects the first rung; its IBLTs use
    4 hash functions. [initial_d] (default 4) doubles on every retry (under
    [Rateless] it scales the initial window instead of a table size);
    [max_attempts] (default 5) bounds reconciliation attempts and
    direct-transfer attempts separately. [attempt_deadline_us] caps each
    attempt's virtual time, [run_deadline_us] the whole run (both ignored
    on a channel link). The backoff after a lost message starts at 50 ms
    of virtual time, doubles per attempt up to 400 ms and adds up to 25 ms
    of seeded jitter. *)

val reconcile_sos :
  link:link -> kind:Ssr_core.Protocol.kind -> seed:int64 -> u:int -> h:int ->
  ?initial_d:int -> ?max_attempts:int ->
  ?attempt_deadline_us:int -> ?run_deadline_us:int ->
  alice:Ssr_core.Parent.t -> bob:Ssr_core.Parent.t -> unit ->
  (Ssr_core.Parent.t * report, error) result
(** Set-of-sets reconciliation under any of the four protocols, same
    recovery discipline. [u] and [h] size the direct encodings where the
    protocol needs them; [initial_d] defaults to 4. Each attempt's nested
    sketches re-derive every hash schedule from [(seed, attempt)]. The
    child-encoding salt stays pinned to [seed], and every attempt of the
    call shares one {!Ssr_core.Enc_cache} memo, made for the call and
    dropped when it returns. *)

(** Wire parsers of the direct-transfer payloads, exposed so the
    untrusted-size regression tests can feed them hostile byte strings
    directly. Not part of the stable API. *)
module For_tests : sig
  val parse_direct_set : seed:int64 -> Bytes.t -> Ssr_util.Iset.t option
  val parse_direct_sos : seed:int64 -> Bytes.t -> Ssr_core.Parent.t option
end
