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
    cells". Decoding completes after about [1.35 d + O(log d)] cells for a
    difference of size [d] — communication converges to the difference
    size with no size negotiation, no doubling retries and no wasted
    sketches.

    One shape serves every caller: keys are non-negative integers, each
    the 8-byte little-endian word it is hashed and XORed as, and a cell is
    {!cell_bytes} = 16 bytes — a signed count (i32 LE), the key XOR and a
    32-bit checksum XOR (LE), the packed layout of the {!Iblt} cell store,
    so a window is serialized by straight copy. The checksum is narrower
    than the IBLT's 62 bits because protocol layers verify a whole-set
    hash before accepting a decode.

    Cost: every walk — a pool element's, or a peeled key's — keeps a
    cursor where the last window left it, so a forward stream walks each
    once from cell 0 to its end, ~[1 + 2 ln N] steps to cell [N]. The
    sender's and the receiver's pools count their steps under
    [rateless.walk_steps], the receiver's peeled keys under
    [rateless.key_walk_steps]; each member a walk meets costs three word
    updates. Below a small member index the skip to the next member reads
    an exact threshold table instead of dividing ({!skip}).

    Everything is deterministic: the stream is byte-identical for a fixed
    seed and pool, and decode progress is a pure function of the multiset
    of absorbed cells (peel success is monotone in the absorbed set — once
    decodable, any superset decodes to the same difference). *)

val max_index : int
(** Exclusive upper bound on usable cell indices (far beyond any practical
    stream length; keeps the skip arithmetic exact). *)

val cell_bytes : int
(** Packed bytes per coded cell: 16. *)

(** {2 Sender side} *)

type source
(** An element pool with precomputed per-element digests, ready to generate
    any window of the coded-cell stream. The pool is fixed at creation, but
    a source carries state: each element's walk cursor (16 bytes), which
    the next window resumes. Generating a window updates the cursors, so a
    source must not be shared by concurrent callers. *)

val source_of_ints : seed:int64 -> int array -> source
(** Digest a pool of non-negative integers under the public-coin [seed]
    (both parties must use the same). Raises [Invalid_argument] on a
    negative key. *)

val cells : source -> lo:int -> hi:int -> Bytes.t
(** The packed coded cells of indices [\[lo, hi)]:
    [(hi - lo) * cell_bytes] bytes, a pure function of the seed, the range
    and the pool — windows are stable under re-slicing
    ([cells ~lo ~hi] = [cells ~lo ~mid ^ cells ~mid ~hi]). Generation is
    one pass over the elements into one buffer. Requires
    [0 <= lo <= hi <= max_index].

    A window with [lo] at or past the previous window's [hi] resumes every
    walk where that window stopped, skipping any gap; one that starts
    below it walks again from cell 0. Only the cost differs: the bytes are
    the same either way. *)

val member : source -> key_index:int -> int -> bool
(** Whether pool element [key_index] belongs to the given cell index.
    White-box test hook; not a hot path. *)

val walk_int : seed:int64 -> int -> int Seq.t
(** [walk_int ~seed v] is the increasing sequence of cell indices below
    {!max_index} that key [v] belongs to under [seed]'s schedule (it
    starts with cell 0), drawn lazily one skip per element. A pure
    function of [(seed, v)], whatever the pool: exposed for white-box
    tests and the adversarial workload generator, not used on any hot
    path. Apply [~seed] once to share the hash setup across keys. Raises
    [Invalid_argument] on a negative key. *)

val skip : int -> int -> int
(** [skip m r]: the member index after [m] ([-1] before the first) for
    a 32-bit draw [r] in [\[1, 2^32\]], or {!max_index} past the last
    usable cell — the least [j > m] with
    [(j+1)(j+2) >= (m+1)(m+2) 2^32 / r], the quotient rounded once to a
    float. Below a small [m] it scans a table of the least draw giving
    each [j], exact because a correctly rounded quotient is monotone in
    its divisor; elsewhere it is {!skip_float}. *)

val skip_float : int -> int -> int
(** The float evaluation of {!skip}'s formula (division, square root and
    an exact correction): the reference the table is tested against. *)

(** {2 Cells held by the caller}

    Counts add and keys and checksums XOR, so a stream prefix
    [\[0, N)] can follow a changing set: adding or removing a key is one
    signed walk of that key over the prefix, about [1 + 2 ln N] steps and
    as many cells. A server shard keeps its prefix so; its client
    subtracts its own cells from a served window with {!subtract} and
    {!write_int}, leaving the difference for a decoder with an empty
    pool. *)

type writer
(** The seed's key hashing and a one-key walk. It carries the walk's
    state, so a writer must not be shared by concurrent callers. *)

val writer : seed:int64 -> writer

val write_int : writer -> sign:int -> int -> lo:int -> hi:int -> Bytes.t -> unit
(** [write_int w ~sign v ~lo ~hi buf] adds key [v] with [sign] ([1] or
    [-1]) into the packed cells [\[lo, hi)] held from byte 0 of [buf], in
    place, through the writer {!cells} uses: its walk starts at cell 0
    and stops at its first member at or past [hi]. Steps count under
    [rateless.walk_steps]. Raises [Invalid_argument] on a negative key, a
    sign other than [±1], a range outside [\[0, max_index\]] or a buffer
    shorter than the range. *)

val subtract : Bytes.t -> Bytes.t -> off:int -> unit
(** [subtract dst src ~off] subtracts, cell by cell and in place, the
    packed cells of [src] from byte [off] from those of [dst]: counts
    subtract, keys and checksums XOR. Two pools' windows over one index
    range leave the cells of their difference. Raises [Invalid_argument]
    unless [dst] holds whole cells and [src] holds as many from [off]. *)

(** {2 Receiver side} *)

type decoder
(** Incremental peeling state over the cells absorbed so far. *)

val decoder_of_ints : seed:int64 -> int array -> decoder
(** A decoder that folds this local pool into every absorbed cell, leaving
    the symmetric difference of the two pools encoded. *)

val absorb : decoder -> lo:int -> Bytes.t -> int
(** Absorb a window of packed cells whose first cell has index [lo]: fold
    the local pool in, cancel every already-peeled key out of the new
    cells, and peel as far as possible — but never past one peel per
    absorbed cell, the most a genuine stream yields, so crafted cells
    cannot keep it peeling without end. Returns the number of fresh cells
    absorbed — cells at or below the highest index already absorbed are
    skipped, so duplicate or overlapping windows are harmless, and gaps
    from lost windows are fine: the stream only moves forward, lost cells
    are never backfilled, and peeling works on any index subset. The byte
    length must be a multiple of {!cell_bytes} ([Invalid_argument]
    otherwise — wire parsers validate before calling); cells that would
    land at or beyond {!max_index} are ignored.

    The pool and every peeled key resume their walks over the fresh cells
    only. A key peeled here walks once from cell 0 to {!next_index},
    finding each member's cell among the absorbed windows' gap-free runs
    (in place on a gap-free stream, by binary search over the runs after
    a gap). Memory grows with the cells, runs and keys absorbed, never
    with a delivered index. *)

val absorbed : decoder -> int
(** Fresh cells absorbed so far. *)

val next_index : decoder -> int
(** 1 + the highest cell index absorbed (0 when none): the natural [lo]
    for the next window, and the cumulative-progress value a receiver
    reports in its ACKs. *)

val peeled : decoder -> int
(** Keys extracted so far (both signs). *)

val decoded_ints : decoder -> (int list * int list) option
(** [Some (remote_only, local_only)], each in peel order, when every
    absorbed cell has peeled to zero — the current decode candidate;
    [None] while cells remain stuck (absorb more). A candidate from a
    gappy prefix can in principle be incomplete (all absorbed cells happen
    to miss a difference element), which is why protocol layers verify a
    whole-set hash before acknowledging completion; further absorbs then
    resume peeling. Total on hostile streams: a peeled key outside the
    valid range makes the candidate invalid ([None], counted under the
    [rateless.bad_int_keys] metric) rather than raising. *)
