(** Strata estimator of Eppstein, Goodrich, Uyeda and Varghese ("What's the
    difference?", SIGCOMM 2011) — the set-difference estimator the paper's
    Appendix A improves upon, kept here as the comparison baseline.

    Elements are partitioned into strata by the number of trailing zero bits
    of a hash (stratum i receives a 2^-(i+1) fraction of elements); each
    stratum is a small fixed-size IBLT. To estimate |S_A ⊕ S_B| the decoder
    walks from the sparsest stratum down, summing exactly-decoded stratum
    differences, and scales up by 2^(i+1) at the first stratum that fails to
    decode. *)

type t

val create : seed:int64 -> unit -> t
(** 32 strata of 40-cell, 3-hash IBLTs (close to the reference
    implementation's 80x32 but sized for the universes used here). *)

val add : t -> int -> unit
(** Add one element of the local set. *)

val add_all : t -> int array -> unit
(** {!add} of every element, in order. *)

val estimate : local:t -> remote:t -> int
(** One party's estimate of the set difference given the other's sketch.
    Both sketches must have been created with the same seed. Each
    call ticks [estimator.strata.queries] and records the estimate in the
    [estimator.strata.estimate] distribution. *)

val record_accuracy : estimate:int -> truth:int -> unit
(** Record [|estimate - truth|] in [estimator.strata.abs_error]; for callers
    that know the true difference size. *)

val size_bits : t -> int
(** Serialized size: what sending this estimator costs. *)
