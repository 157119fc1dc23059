(** Process-wide metrics registry: named monotonic counters, gauges and
    histogram-lite distributions.

    The hot path is a single find-or-create at registration time (module
    initialization, typically) and an O(1) unboxed update per event, so
    instrumented inner loops — IBLT cell updates, peeling, framing — pay a
    couple of memory writes and nothing else. No I/O, no allocation on
    update.

    Every operation is domain-safe: counters and gauges are [Atomic.t]
    cells (a lost-update-free [fetch_and_add] per {!incr}), distribution
    samples take a per-cell mutex so the (count, sum, min, max) tuple stays
    internally consistent, and first-touch registration plus
    {!snapshot}/{!reset} iteration hold a registry mutex — so a caller
    running the library on several domains may register and update cells
    freely. Updates to already-registered cells never touch the registry
    lock.

    Cells are global state, deliberately: protocols thread a [Comm.t]
    recorder for their own transcript accounting, but cross-cutting
    subsystems (sketches, framing, ARQ) have no shared value to thread one
    through. Reports are therefore taken as {e deltas}: callers snapshot
    before and after a region and {!diff} the two, which composes with any
    number of concurrent-in-spirit instrumented layers. Nothing in the
    protocols ever reads a metric, so replay determinism is unaffected. *)

type counter
(** Monotonic event count. *)

type gauge
(** Last-write-wins instantaneous value. *)

type dist
(** Histogram-lite distribution: count, sum, min, max of observed values. *)

val counter : string -> counter
(** Find or create the counter registered under this name. Raises
    [Invalid_argument] if the name is already registered with a different
    kind. *)

val incr : counter -> unit
(** Add 1 to the counter: [add c 1]. *)

val add : counter -> int -> unit
(** [add c n] adds [n] to the counter. O(1), atomic and non-allocating —
    concurrent additions from multiple domains all land. *)

val gauge : string -> gauge

val set : gauge -> int -> unit

val dist : string -> dist

val observe : dist -> int -> unit
(** Record one sample into the distribution. O(1), non-allocating. *)

type value =
  | Counter of int
  | Gauge of int
  | Dist of { count : int; sum : int; min : int; max : int }

type snapshot = (string * value) list
(** Sorted by name, so two snapshots of the same registry state are
    structurally equal and their renderings byte-identical. *)

val snapshot : unit -> snapshot

val diff : before:snapshot -> after:snapshot -> snapshot
(** The activity between two snapshots: counter and distribution counts/sums
    subtract; gauges keep their [after] value. Entries with no activity in
    the window are dropped, so a diff is exactly "what this region did".
    Distribution [min]/[max] are the extremes since process start (or
    {!reset}), not the window's — deriving windowed extremes would need the
    full sample list this histogram-lite representation does not keep. *)

val find : snapshot -> string -> value option

val counter_value : snapshot -> string -> int
(** The counter's value in the snapshot, or 0 when absent (a never-ticked
    counter and a missing one read the same). *)

val to_json : snapshot -> string
(** Deterministic JSON object keyed by metric name: counters and gauges as
    integers, distributions as [{"count":..,"sum":..,"min":..,"max":..,
    "mean":..}]. *)

val pp : Format.formatter -> snapshot -> unit
(** Human-readable table, one metric per line. *)

val json_escape : string -> string
(** Escape a string for embedding in a JSON string literal (shared with
    {!Trace} and the CLI report writers; the tree carries no JSON
    dependency). *)

val reset : unit -> unit
(** Zero every registered cell (registrations and handed-out cells stay
    valid). Test isolation only; production readers should use {!diff}. *)
