(** Per-request memo of child encodings.

    A child encoding ({!Encoding}) is a pure function of the encoder
    configuration and the child, so a loop that re-encodes the same
    children under the same configuration can keep the bytes instead of
    recomputing them. Only one loop does: [Resilient.reconcile_sos] pins
    the child-encoding salt ([enc_seed]) across the rungs of its retry
    ladder, creates one memo per request and passes it to every rung
    through [Protocol.run_known]. The memo dies with the request. A single
    attempt runs without one: building each key into a reused buffer costs
    less than keeping a copy of it.

    The memo is shared by the two in-process parties, so Bob's pass hits
    the entries Alice's pass just made. Two machines could not share them;
    splitting it into one memo per party waits for a benchmark that runs
    the parties apart. On [lossy_unknown_d]'s cascade requests over
    [Resilient] (median ms per request), the process-global cache this
    memo replaced took 24.2 ms, the shared memo 24.7 ms, no memo 28.2 ms
    (+16%) and one memo per party 30.3 ms (+25%).

    Hits are byte-transparent by construction: an entry is keyed by the
    exact encoder configuration and the child itself, never by a
    fingerprint, so a hit returns exactly the bytes the encoder would have
    written. A memo is not thread-safe: one request's attempts, and the
    passes inside them, run one after another. *)

type t

val create : unit -> t
(** An empty memo, for one request. *)

type family
(** The entries of one encoder configuration inside a memo. *)

val family : t -> cells:int -> k:int -> bits:int -> seed:int64 -> family
(** The entries for this child-table geometry, hash width and seed; made
    empty on first use. A fold looks its family up once, when it is
    staged. *)

val find_or_fill :
  family -> (Ssr_util.Iset.t -> Bytes.t -> unit) -> Bytes.t -> Ssr_util.Iset.t -> Bytes.t
(** [find_or_fill fam fill buf child] returns the memo's bytes for [child]
    on a hit. On a miss it runs [fill child buf], keeps one copy of [buf]
    and returns [buf]. Callers only read the result: a hit returns the
    memo's own copy. *)

type stats = { hits : int; misses : int; bytes : int }
(** Process-wide counters over every memo since the last {!clear}: lookups
    that hit, lookups that missed, and bytes copied into memos (the bytes a
    request's memo holds when it ends, summed over requests). *)

val stats : unit -> stats

val clear : unit -> unit
(** Reset the counters. Memos themselves are dropped with their request. *)
