(** Seeded, offline workload generators for million-element experiments.

    Real evaluations of the paper's protocols need inputs bigger than any
    harness wants to materialize: GraphChallenge-style edge lists, skewed
    child-size collections, near-duplicate document corpora. Every family
    here is a pure function of (seed, position) — a child is re-derivable
    from its index alone — so the streams are resumable from any position,
    byte-identical at any parallel-pool size, and feed
    [Protocol.run_known_stream] in bounded memory. All generators guarantee
    pairwise-distinct children structurally (each child carries an identity
    element no other child can), which is the {!Ssr_core.Parent.stream}
    contract. *)

type instance = {
  stream : Ssr_core.Parent.stream;  (** The children, as a resumable pure stream. *)
  universe : int;  (** Strict upper bound on every element. *)
  max_child_size : int;  (** Upper bound on every child's cardinality (h). *)
}
(** A generated workload plus the [u] and [h] the protocols need. *)

val graph : seed:int64 -> nodes:int -> avg_degree:int -> instance
(** Edge-list graph as a set of sets: child [i] is node [i]'s
    out-neighbourhood over [\[0, nodes)] plus the identity marker
    [nodes + i]. Degrees are uniform in [\[1, 2*avg_degree)] with a ~1%
    population of 8x hubs (skew in the GraphChallenge style). Universe
    [2*nodes]; total elements ~ [nodes * avg_degree]. *)

val zipf :
  seed:int64 -> parents:int -> universe:int -> max_child_size:int -> alpha:float -> instance
(** [parents] children whose sizes follow a Zipf law: child [i]'s size is
    [max_child_size / (rank_i + 1)^alpha] for a pseudo-random rank over
    [\[0, min(parents, 64))] — a thin population of large children and a
    long small tail ([alpha = 0]: all full-size). Element [i < parents] is
    child [i]'s identity; the rest hash into [\[parents, universe)].
    Requires [universe > parents]. *)

val shingle_corpus :
  seed:int64 -> docs:int -> shingles_per_doc:int -> overlap:float -> instance
(** Document-shingle corpus with configurable cross-document overlap:
    each of the [docs] children takes [overlap * shingles_per_doc] of its
    shingles from a shared pool of [8 * shingles_per_doc] values and the
    rest from a doc-unique range (always at least one unique shingle, so
    children stay distinct even at [overlap = 1]). *)

val pair : seed:int64 -> edits:int -> instance -> instance
(** Alice's perturbed twin of a base (Bob) instance: [edits] element
    additions of fresh elements ([universe + e], pairwise distinct) to
    pseudo-random children. Exactly [edits] element slots differ between
    twin and base (relaxed matching cost [2 * edits] — each edited child
    is charged from both sides); the twin remains a pure resumable stream
    with only O(edits) private state. The returned universe and
    [max_child_size] are widened to cover the added elements. *)

val shingle_seq : k:int -> string -> int Seq.t
(** The 62-bit hashes of a document's length-[k] word windows, in document
    order: split on non-alphanumeric characters, lowercase, hash each
    window of [k] consecutive words; texts shorter than [k] words yield
    one whole-text shingle, empty texts none. The streaming ingestion
    primitive behind {!Shingles.shingle} — hash values are identical to
    what that module always produced. *)
