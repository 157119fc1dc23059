(** Parent sets: the "sets of sets" being reconciled (paper §3).

    A parent set holds s child sets, each a set of at most h elements from a
    universe of size u. The canonical representation (children sorted,
    duplicates removed — a parent is a {e set} of sets) supports the hashing
    and diffing the protocols need, plus the perturbation workloads used by
    tests and benchmarks: Alice's parent is Bob's after a bounded number of
    element additions/deletions applied to child sets. *)

type t

val of_children : Ssr_util.Iset.t list -> t
(** Canonicalize: sort and deduplicate the children. *)

val children : t -> Ssr_util.Iset.t list
(** In canonical order. *)

val cardinal : t -> int
(** Number of (distinct) child sets: s. *)

val total_elements : t -> int
(** Sum of child sizes: n. *)

val max_child_size : t -> int
(** Largest child: h. 0 for the empty parent. *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** Total order on canonical forms (used by the set-of-sets-of-sets
    extension to canonicalize collections of parents). *)

val mem : Ssr_util.Iset.t -> t -> bool
(** O(log s) comparisons: a binary search over the canonical order. *)

val hash : seed:int64 -> t -> int
(** 62-bit hash of the canonical form: the whole-object verification guard
    ("Alice can send Bob a hash of her whole set of sets", §3.2) of the
    set-of-sets-of-sets extension and of Resilient's direct transfer. The
    four nested protocols guard with {!stream_hash} instead. *)

val symmetric_diff : t -> t -> Ssr_util.Iset.t list * Ssr_util.Iset.t list
(** [(a_only, b_only)]: children of one parent absent from the other. *)

val relaxed_matching_cost : t -> t -> int
(** The difference measure the protocols actually solve (§3.1): the sum,
    over every child set of either party, of its minimum set difference
    with some child of the other party — each differing child is charged
    its distance to its best counterpart. O(s^2 h). Children present on
    both sides cost 0. For the empty other side, a child costs its size. *)

type edit = { child_index : int; element : int; kind : [ `Add | `Del ] }
(** One element edit applied to a child (by canonical index). *)

val perturb :
  Ssr_util.Prng.t -> universe:int -> ?max_child_size:int -> edits:int -> t -> t * edit list
(** Apply [edits] random element additions/deletions across the children
    (the paper's update model). Respects [universe] and, if given,
    [max_child_size]; never creates an edit that cancels a previous one on
    the same child, so the relaxed matching cost is at most (and typically
    exactly) [edits]. Returns the perturbed parent and the edit log. *)

val random :
  Ssr_util.Prng.t -> universe:int -> children:int -> child_size:int -> t
(** A random parent of [children] distinct child sets with approximately
    [child_size] elements each, drawn from [\[0, universe)]. *)

(** {2 Streaming views}

    Million-element workloads cannot afford to materialize a whole parent:
    a {!stream} presents the children as a pure random-access function of
    position (resumable from any index, deterministic). Every nested
    protocol has exactly one build path ([Protocol.run_known_stream]),
    which builds its sketches from streams in bounded memory;
    materialized parents enter it through {!stream_of_t}. *)

type stream = {
  length : int;  (** Number of children (s). *)
  child : int -> Ssr_util.Iset.t;
      (** Child at a canonical-order-free position in [\[0, length)]. Must
          be pure (same index, same child — streams are re-walked) and the
          children pairwise distinct. *)
}

val stream_of_t : t -> stream
(** Zero-copy view of a materialized parent: how the [Parent.t] entry
    points of the protocols reach their single stream build path. *)

val of_stream : stream -> t
(** Materialize (tests and small inputs only — this is exactly what the
    streaming paths exist to avoid at scale). *)

val stream_to_seq : ?from:int -> stream -> Ssr_util.Iset.t Seq.t
(** The children from position [from] (default 0) on; restarting the
    sequence re-invokes the pure generator, so iteration is resumable. *)

val stream_total_elements : stream -> int
(** Sum of child sizes (n), by one folding pass. *)

val stream_max_child_size : stream -> int
(** Largest child (h), by one folding pass. *)

val stream_pass : seed:int64 -> stream -> (int -> Ssr_util.Iset.t array -> unit) -> int
(** [stream_pass ~seed st visit] is the one walk of [st] that a party
    makes per attempt. It fetches the children in chunks of 4096, calls
    [visit base kids] on each chunk in order ([kids.(j)] is child
    [base + j]), and returns [stream_hash ~seed st], computed in the same
    walk. At most one chunk of children is live at a time, plus
    whatever [visit] keeps. A visitor that lands the children in
    XOR-linear sketches (IBLTs) builds exactly what one whole-parent batch
    would, whatever the chunking. *)

val stream_hash : seed:int64 -> stream -> int
(** Order-independent whole-parent digest: XOR of a salted 62-bit digest
    of every child. It is the 8-byte guard of every nested
    protocol's transcript: unlike {!hash} it needs no sorted children, and
    Bob can update it incrementally from a recovered delta. [stream_pass]
    with a visitor that does nothing. *)

type delta = { a_only : Ssr_util.Iset.t list; b_only : Ssr_util.Iset.t list }
(** What a reconciliation recovers: the children only Alice has and the
    children only Bob has — O(d) state, never the whole parent. *)

val delta_digest : seed:int64 -> base:int -> delta -> int
(** [delta_digest ~seed ~base:(stream_hash bob) delta]: Bob's digest with
    [b_only] XORed out and [a_only] XORed in — equals Alice's
    {!stream_hash} exactly when the delta is correct. *)

val apply_delta : t -> delta -> t
(** Apply a recovered delta to (materialized) Bob: drop [b_only], add
    [a_only]. This is how callers holding a [Parent.t] get Bob's
    reconciled parent. *)

val pp : Format.formatter -> t -> unit
