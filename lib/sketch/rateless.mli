(** Rateless coded-cell stream for set reconciliation (Lázaro & Matuz,
    arXiv:2211.05472; the LT-style index schedule follows the practical
    rateless-IBLT construction).

    The IBLT of {!Iblt} is a fixed-size code: its size must be guessed from
    a difference bound before anything is sent, and a wrong guess wastes the
    whole sketch. XOR-linearity makes the sketch {e rate-compatible}
    instead: this module turns a local element pool into an open-ended
    stream of coded cells in which cell [i] is a pure function of
    [(seed, i)] and the pool — each element belongs to cell [i]
    independently with probability [2 / (i + 2)] (cell 0 sums the whole
    pool), so early cells are dense and later cells sparse, an LT-code
    degree schedule. A sender can emit any prefix — or any subset, because
    lost cells never have to be retransmitted: every fresh cell carries new
    parity.

    The receiver folds its own pool into each arriving cell (the same
    stream generator, opposite sign), leaving exactly the symmetric
    difference encoded, and peels continuously as cells arrive, keeping all
    partial progress: a stalled peel is not a failure, just "need more
    cells". Decoding completes after
    about [1.35 d + O(log d)] cells for a difference of size [d] —
    communication converges to the difference size with no size
    negotiation, no doubling retries and no wasted sketches.

    Cells use the packed layout of the {!Iblt} cell store — a signed count
    (i32 LE), the key XOR and a checksum XOR of configurable width,
    contiguous per cell, memory layout = wire layout — so a window of cells
    is serialized by straight copy.

    Everything is deterministic: the stream is byte-identical for a fixed
    seed at any {!Ssr_util.Par} pool size, and decode progress is a pure
    function of the multiset of absorbed cells (peel success is monotone in
    the absorbed set — once decodable, any superset decodes to the same
    difference). *)

type params = {
  key_len : int;  (** Key width in bytes. *)
  seed : int64;  (** Public-coin seed; both parties must use the same. *)
}

val max_index : int
(** Exclusive upper bound on usable cell indices (far beyond any practical
    stream length; keeps the skip arithmetic exact). *)

val cell_bytes : ?check_bits:int -> key_len:int -> unit -> int
(** Packed bytes per coded cell: [4 + key_len + check_bits/8 (rounded up)].
    [check_bits] (default [32]) is one of [8], [16], [32] or [62], as in
    {!Iblt.create}; rateless decoding leans on the caller's whole-set hash
    for end verification, so the narrower default trades per-cell
    false-pure probability (~[2^-check_bits], detected by that hash) for
    20% fewer wire bytes than the 62-bit IBLT default. *)

(** {2 Sender side} *)

type source
(** An element pool with precomputed per-element digests, ready to generate
    any window of the coded-cell stream. The pool is fixed at creation, but
    a source carries state: each element's walk of its member indices
    stops where the last window ended (a cursor of 16 bytes per element),
    and the next window picks it up there, so a sender streaming windows
    forward walks each element once over the whole stream. Generating a
    window updates the cursors, so a source must not be shared by
    concurrent callers. *)

val source : ?check_bits:int -> params -> Bytes.t array -> source
(** Digest a pool of [key_len]-byte keys. Raises [Invalid_argument] on a
    key of the wrong width or an unsupported [check_bits]. *)

val source_of_ints : ?check_bits:int -> seed:int64 -> int array -> source
(** {!source} over little-endian 8-byte encodings of non-negative
    integers ([key_len = 8]). *)

val source_params : source -> params
val source_check_bits : source -> int

val source_cell_bytes : source -> int
(** [cell_bytes] under this source's widths. *)

val cells : source -> lo:int -> hi:int -> Bytes.t
(** The packed coded cells of indices [\[lo, hi)]:
    [(hi - lo) * source_cell_bytes] bytes, a pure function of the seed, the
    range and the pool — windows are stable under re-slicing
    ([cells ~lo ~hi] = [cells ~lo ~mid ^ cells ~mid ~hi]). Generation is
    one serial pass over the elements into one buffer, so the bytes cannot
    depend on the {!Ssr_util.Par} pool size. Requires
    [0 <= lo <= hi <= max_index].

    A window with [lo] at or past the previous window's [hi] resumes every
    walk where that window stopped, skipping any gap; one that starts
    below it walks again from cell 0. Only the cost differs: the bytes are
    the same either way. Each call adds the walk's steps to the
    [rateless.walk_steps] counter. *)

val member : source -> key_index:int -> int -> bool
(** Whether pool element [key_index] belongs to the given cell index.
    White-box test hook; not a hot path. *)

val walk_int : seed:int64 -> int -> int Seq.t
(** [walk_int ~seed v] is the increasing sequence of cell indices below
    {!max_index} that the 8-byte little-endian key [v] belongs to under
    [seed]'s schedule (it starts with cell 0), drawn lazily one skip per
    element. A pure function of [(seed, v)], whatever the pool: exposed
    for white-box tests and the adversarial workload generator, not used
    on any hot path. Apply [~seed] once to share the hash setup across
    keys. Raises [Invalid_argument] on a negative key. *)

(** {2 Receiver side} *)

type decoder
(** Incremental peeling state over the cells absorbed so far. *)

val decoder : ?check_bits:int -> params -> Bytes.t array -> decoder
(** A decoder that folds this local pool into every absorbed cell, leaving
    the symmetric difference of the two pools encoded. *)

val decoder_of_ints : ?check_bits:int -> seed:int64 -> int array -> decoder

val absorb : decoder -> lo:int -> Bytes.t -> int
(** Absorb a window of packed cells whose first cell has index [lo]: fold
    the local pool in, cancel every already-peeled key out of the new
    cells, and peel as far as possible — but never past one peel per
    absorbed cell, the most a genuine stream yields, so crafted cells
    cannot keep it peeling without end. Returns the number of fresh cells
    absorbed — cells at or below the highest index already absorbed are
    skipped, so duplicate or overlapping windows are harmless, and gaps
    from lost windows are fine: the stream only moves forward, lost cells
    are never backfilled, and peeling works on any index subset. Because
    the absorbed range only moves forward, the local pool folds in through
    its source's resumed walks. The byte length must be a multiple of the
    cell width ([Invalid_argument] otherwise — wire parsers validate
    before calling); cells that would land at or beyond {!max_index} are
    ignored. *)

val absorbed : decoder -> int
(** Fresh cells absorbed so far. *)

val next_index : decoder -> int
(** 1 + the highest cell index absorbed (0 when none): the natural [lo]
    for the next window, and the cumulative-progress value a receiver
    reports in its ACKs. *)

val peeled : decoder -> int
(** Keys extracted so far (both signs). *)

val decoded : decoder -> (Bytes.t list * Bytes.t list) option
(** [Some (remote_only, local_only)] when every absorbed cell has peeled
    to zero — the current decode candidate; [None] while cells remain
    stuck (absorb more). A candidate from a gappy prefix can in principle
    be incomplete (all absorbed cells happen to miss a difference
    element), which is why protocol layers verify a whole-set hash before
    acknowledging completion; further absorbs then resume peeling. *)

val decoded_ints : decoder -> (int list * int list) option
(** {!decoded} with every key decoded as a little-endian non-negative
    integer. Total on hostile streams: a peeled key outside the valid
    range makes the candidate invalid ([None], counted under the
    [rateless.bad_int_keys] metric) rather than raising. *)
