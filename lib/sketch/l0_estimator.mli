(** The paper's improved set-difference estimator (Theorem 3.1 / Appendix A).

    The estimator maintains, implicitly, two sets S1 and S2 and estimates
    |S1 ⊕ S2| to within a constant factor. It is a streaming l0-norm sketch
    over the +/-1 indicator vector of the symmetric difference:

    - elements are assigned to one of ~log n levels by the least significant
      bit of a hash (level i with probability 2^-(i+1));
    - each level carries a few replicated subroutines; a subroutine hashes
      into a small array of 2-bit counters mod 4 (+1 for S1, +3 ≡ -1 for S2),
      so matched elements cancel exactly and, absent bucket collisions, the
      number of nonzero counters equals the level's l0 mass;
    - counters are packed three bits apart (2 data + 1 zero padding bit) in
      native words, so merging two estimators is word-wise ADD-and-MASK and
      querying uses word-parallel nonzero-counting plus the least/most
      significant bit trick — the O(1) merge/query of Appendix A;
    - the estimate is read off the deepest level whose subroutine reports
      more than [threshold] nonzero buckets.

    Compared to the strata estimator this drops the O(log u) space factor:
    buckets are 2 bits, not IBLT cells. *)

type shape = {
  levels : int;  (** number of lsb levels; ~log of the max set size *)
  reps : int;  (** replicated subroutines per level *)
  buckets : int;  (** 2-bit counters per subroutine (the Θ(c^2) of App. A) *)
  threshold : int;  (** a level "reports" when > threshold buckets are nonzero *)
}

type side = S1 | S2
(** Which implicit set an update targets (the paper's update(x, i)). *)

type t

val create : seed:int64 -> ?shape:shape -> unit -> t

val update : t -> side -> int -> unit
(** Add element [x] to the given side. Elements must be non-negative. *)

val update_all : t -> side -> int array -> unit
(** Batched {!update}: same estimator state as updating one element at a
    time, with per-side constants hoisted out of the loop. *)

val merge : t -> t -> t
(** The paper's merge: a new estimator representing the union of the two
    operand streams. O(words) = O(1)-per-word packed addition. The operands
    must share seed and shape. *)

val query : t -> int
(** Constant-factor estimate of |S1 ⊕ S2|. Each call ticks the
    [estimator.l0.queries] metric and records the estimate in the
    [estimator.l0.estimate] distribution. *)

val query_opt : t -> int option
(** {!query} within the shape's range: [None] when even the deepest level
    reports, so the difference is beyond what the shape can measure (at
    least [threshold * 2^levels]). A damaged estimator off the wire reads
    so: random counters fill every level. *)

val record_accuracy : estimate:int -> truth:int -> unit
(** Record [|estimate - truth|] in the [estimator.l0.abs_error] distribution.
    Callers that know the true difference size (tests, benches, synthetic CLI
    workloads) report it here so cost reports can show estimator error;
    protocol logic never reads it back. *)

val size_bits : t -> int
(** Serialized size in bits (what sending the estimator costs). *)

val to_bytes : t -> Bytes.t
val of_bytes : seed:int64 -> ?shape:shape -> Bytes.t -> t
(** Raises [Invalid_argument] on a length mismatch. *)

val of_bytes_opt : seed:int64 -> ?shape:shape -> Bytes.t -> t option
(** Non-raising {!of_bytes} for bytes off a channel: [None] on a length
    mismatch; corrupted content is masked back into a well-formed (if
    skewed) estimator rather than raising. *)

(** Median amplification (the final step of Theorem 3.1): running
    O(log(1/delta)) independent copies and answering with the median query
    drives the failure probability from a constant down to delta. *)
module Median : sig
  type estimator := t
  type t

  val create : seed:int64 -> ?shape:shape -> copies:int -> unit -> t
  (** [copies] independent estimators with independent hash functions;
      choose copies = Theta(log(1/delta)). *)

  val update : t -> side -> int -> unit
  val merge : t -> t -> t
  val query : t -> int
  (** Median of the copies' queries. *)

  val copies : t -> estimator array
  (** Exposed for tests. *)
end
