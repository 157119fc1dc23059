(** Planted (h, d+1, 2d+1)-separated instances.

    Theorem 5.3 guarantees that G(n,p) is separated in the sense of
    Definition 5.1 only for astronomically large n (its lower bound on p
    exceeds 1 at laptop scale), so random samples cannot exercise the
    degree-ordering protocol's promised regime directly. This generator
    plants the structure instead: h hub vertices receive deterministic,
    well-gapped degrees by wiring hub i to a uniformly random set of
    exactly k_i non-hub vertices (k_i spaced d+2 apart), non-hub vertices
    get sparse random internal edges that touch no signature, and the
    resulting hub-adjacency rows are high-entropy bit strings whose
    pairwise Hamming distances exceed 2d+1 with high probability. The
    construction is verified with {!Degree_order_sig.is_separated} and
    resampled on the rare failure, so callers receive a certified
    instance. *)

val separated_instance :
  Ssr_util.Prng.t -> n:int -> h:int -> d:int -> unit -> Graph.t
(** Certified (h, d+1, 2d+1)-separated graph. Requires roughly
    [n >= 3 * h * (d + 2)] so the hub degrees fit; raises [Failure] if a
    valid instance cannot be built in a few attempts (parameters too
    tight). Hubs are vertices [0..h-1]. *)

val perturbed_pair :
  Ssr_util.Prng.t -> base:Graph.t -> d:int -> Graph.t * Graph.t
(** Alice/Bob views: at most d/2 random edge flips each applied to the
    planted base, mirroring {!Gnp.perturbed_pair}. *)
