(** Adversarial key families: seeded sets engineered to stall IBLT peeling.

    The generator grinds candidate integer keys against the concrete hash
    schedule of a parameterized table (the same
    {!Ssr_util.Hashing.hash_bytes_pair}-derived position walk the sketch
    uses) and keeps only keys confined to a small fixed subset of cells in
    every partition. A difference made of such keys overloads those cells —
    no cell is ever pure, peeling cannot start, and the plain one-shot
    protocol fails at a table size that decodes random differences with
    high probability. This is the workload a long-lived public-seed
    deployment must survive, and exactly what the fresh per-attempt salt
    of [Ssr_transport.Resilient]'s retries is for: one attempt-salted
    reschedule makes the family look random again.

    A second family ({!rateless_colliding_ints}) is ground against the
    rateless coded-cell schedule of {!Ssr_sketch.Rateless} instead.

    Everything is a pure function of [(params.seed, salt)] (of [seed]
    for the rateless family); families are reproducible and disjoint
    salts give disjoint families. *)

val colliding_ints :
  prm:Ssr_sketch.Iblt.params -> ?confine:int -> ?salt:int -> count:int -> unit -> int list
(** [count] distinct keys (in [\[0, 2^40)]) whose [k] schedule positions
    under [prm] all fall in the first [confine] cells of their partition.
    [confine] defaults to [max 2 (per_part / 8)], keeping the grind at
    roughly thousands of hash evaluations per key at any table size.
    Raises [Invalid_argument] if the grind budget is exhausted (only
    reachable with a confinement far below the default). *)

val workload :
  prm:Ssr_sketch.Iblt.params -> ?confine:int -> ?salt:int -> bob_size:int -> count:int ->
  unit -> Ssr_util.Iset.t * Ssr_util.Iset.t
(** [(alice, bob)] where [bob] is an ordinary random set (disjoint from the
    grinder's key range) and [alice = bob ∪ family], so the engineered
    family is exactly the difference a reconciliation must decode. *)

val rateless_colliding_ints : seed:int64 -> count:int -> unit -> int list * int
(** [(keys, w)]: [count] distinct keys (in [\[0, 2^40)]) whose member
    walks under the rateless schedule of [seed]
    ({!Ssr_sketch.Rateless.walk_int}) coincide on the first [w] cells:
    each belongs to cell 0, as every key does, and to no cell in
    [\[1, w)]. A difference made of them leaves cell 0 impure and cells 1
    to [w - 1] empty, so a receiver peels nothing before cell [w]. The
    grinder draws a fixed budget of [2^16] candidates and keeps the
    [count] whose second member comes latest; [w] is the smallest such
    index, the largest the budget reaches: about
    [sqrt (2^17 / count)] (over the 40 trials of [bench robust], at
    least 68 for 16 keys and 42 for 48). Raises [Invalid_argument] if
    [count > 2^16]. *)

val rateless_workload :
  seed:int64 -> bob_size:int -> count:int -> unit -> (Ssr_util.Iset.t * Ssr_util.Iset.t) * int
(** {!workload} for the rateless family: [((alice, bob), w)] with
    [alice = bob ∪ keys]. *)
