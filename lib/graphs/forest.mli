(** Rooted forests (paper §6).

    A forest of rooted trees, stored as a parent array. Edge updates follow
    the paper's model: deleting an edge makes the child a new root;
    inserting an edge makes an existing root the child of a vertex outside
    its own tree. Isomorphism is classless-label (AHU) equality of the
    multiset of root canonical forms.

    The reconciliation encoding: each vertex's signature is a hash of the
    sorted signatures of its children (leaves hash a constant), and every
    vertex contributes one child multiset holding its own signature tagged
    as the parent plus its children's signatures. The resulting collection
    is a multiset of multisets (identical subtrees repeat); §6 shows a
    forest is reconstructible from it, which {!reconstruct} implements
    including the paper's "k identical groups" division for repeated
    signatures. *)

type t

val of_parents : int array -> t
(** [parents.(v)] is v's parent, or -1 for a root. Rejects cycles and
    out-of-range entries. *)

val parents : t -> int array
(** A fresh copy. *)

val n : t -> int
val num_edges : t -> int
val roots : t -> int list
val children : t -> int -> int list
val depth : t -> int -> int
(** Roots have depth 0. *)

val max_depth : t -> int
(** The paper's σ: the maximum depth over all vertices (0 for an edgeless
    forest). *)

val equal_labeled : t -> t -> bool

val canonical_root_labels : t -> string list
(** Sorted AHU canonical labels of the roots: two forests are isomorphic
    iff these lists are equal. Exact (string, not hashed). *)

val isomorphic : t -> t -> bool

val random : Ssr_util.Prng.t -> n:int -> max_depth:int -> unit -> t
(** Random forest: each vertex becomes a root with probability 0.1 or
    attaches to a uniformly chosen earlier vertex of depth < [max_depth]. *)

val random_updates : Ssr_util.Prng.t -> ?max_depth:int -> t -> int -> t
(** Apply k structure-preserving edge updates (insertions of roots under
    other trees' vertices, deletions detaching subtrees); if [max_depth] is
    given, insertions never push any vertex beyond it. *)

val signature_hashes : seed:int64 -> t -> int array
(** Per-vertex subtree signature: a 40-bit hash of the sorted child
    signatures (paper: "an Θ(log n)-bit pairwise independent hash of the
    isomorphism class label of the tree that it roots"). *)

val edge_encoding : seed:int64 -> t -> Ssr_setrecon.Multiset.t list
(** One child multiset per vertex: the vertex's own signature with the
    parent tag, plus each child's signature with the child tag. The list
    is a multiset (duplicates meaningful). *)

val reconstruct : Ssr_setrecon.Multiset.t list -> t option
(** Rebuild a forest from a (recovered) collection of child multisets;
    [None] if the collection is not a consistent forest encoding. The
    result is isomorphic to (not necessarily labeled equal to) the encoded
    forest. *)
