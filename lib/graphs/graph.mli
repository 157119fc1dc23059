(** Undirected simple graphs on vertices [0 .. n-1].

    The substrate for Sections 4 and 5: immutable adjacency-set graphs with
    the edge-id labeling used to reduce labeled graph reconciliation to set
    reconciliation, plus the edge-flip perturbations of the paper's model
    (G drawn from G(n,p), Alice and Bob each holding a ≤ d/2 edge-flip
    perturbation of G). *)

type t

val create : n:int -> edges:(int * int) list -> t
(** Self-loops are rejected; duplicate/reversed edges collapse. *)

val n : t -> int
val num_edges : t -> int
val has_edge : t -> int -> int -> bool
val neighbors : t -> int -> Ssr_util.Iset.t
val degree : t -> int -> int
val degrees : t -> int array
val edges : t -> (int * int) list
(** Each edge once, with [fst < snd], sorted. *)

val add_edge : t -> int -> int -> t
val remove_edge : t -> int -> int -> t
val toggle_edge : t -> int -> int -> t

val equal : t -> t -> bool
(** Equality as labeled graphs. *)

val edge_id : n:int -> int -> int -> int
(** Canonical integer id of the unordered pair: [min*n + max]. *)

val of_edge_id : n:int -> int -> int * int

val edge_ids : t -> Ssr_util.Iset.t
(** The labeled edge set as integers — the input to set reconciliation. *)

val of_edge_ids : n:int -> Ssr_util.Iset.t -> t

val relabel : t -> int array -> t
(** [relabel g perm] maps vertex [v] to [perm.(v)]. [perm] must be a
    permutation of [0..n-1]. *)

val edge_flip_distance : t -> t -> int
(** Number of edge additions+deletions separating two labeled graphs. *)

val flip_random_edges : Ssr_util.Prng.t -> t -> int -> t
(** Flip (toggle) [k] distinct vertex pairs chosen uniformly. *)
