(** The cascading IBLTs-of-IBLTs protocol (paper §3.2, Algorithm 2,
    Theorem 3.7), and the one engine that runs both nested IBLT protocols.

    Algorithm 1 spends O(d) cells on every differing child even though the
    d element changes are spread across children: only O(1) children can
    have Ω(d) changes, O(sqrt d) can have Ω(sqrt d), and so on. The cascade
    exploits this with log min(d, h) levels: level i pairs child IBLTs of
    O(2^i) cells with an outer IBLT of O(d / 2^i) cells. Children with
    small differences are recovered at low levels and deleted from the
    higher-level tables, so each level only carries the children that still
    need bigger sketches. When h <= d a final table T* of O(d/h) cells
    holds full direct encodings as a backstop. Communication drops to
    O(d log min(d, h) log u + d log s) — the d_hat * d product of
    Algorithm 1 becomes additive.

    Per-level child tables are deliberately lean (a low-level decode failure
    is not fatal — the child is simply recovered at a higher level), which
    is exactly the structure of the paper's X_i / Y_i analysis.

    Algorithm 1 (IBLT-of-IBLTs, Theorem 3.5) is the same protocol with one
    level of child tables sized for d and no T*: {!Iblt_of_iblts.plan}
    builds that geometry, and {!alice} and {!bob} run both. [Protocol]
    picks the tuning, and runs the unknown-d doubling of Corollaries 3.6
    and 3.8. *)

type level = {
  enc : Encoding.config;  (** The child encodings folded into this level's table. *)
  outer : Ssr_sketch.Iblt.params;  (** The level's outer table. *)
}

type plan = {
  label : string;  (** The {!Ssr_setrecon.Comm} label of the one message. *)
  per_level : level array;  (** Levels 1 to t, in order; never empty. *)
  star : (Direct.config * Ssr_sketch.Iblt.params) option;
      (** T*: direct encodings and their table, sent after the levels. *)
}
(** The public geometry of one attempt: everything both parties derive
    from the seeds and the bounds. *)

val plan :
  seed:int64 -> enc_seed:int64 -> d:int -> d_hat:int -> s_bound:int -> u:int -> h:int -> k:int ->
  plan
(** Algorithm 2's geometry: t = ⌈log min(d, h)⌉ levels (at least one),
    level i with lean child tables of O(2^i) cells and an outer table for
    2 [d_hat] keys at level 1 and O(d / 2^i) above it, and T* for O(d/h)
    direct encodings of width given by [u] and [h] when [h <= d]. [s_bound]
    sizes the child hashes. [enc_seed] salts only the per-level child
    encodings; the outer tables and T* are salted by [seed]. The label is
    [cascade-tables+digest]. *)

val alice :
  ?memo:Enc_cache.t -> seed:int64 -> plan -> Parent.stream -> unit Ssr_setrecon.Comm.party
(** Alice's step of one attempt: one chunked pass over her stream folds
    each child into every table ({!Encoding.fold}, {!Direct.fold}), and
    she sends them all with her {!Parent.stream_hash} guard. *)

val bob :
  ?memo:Enc_cache.t -> seed:int64 -> plan -> Parent.stream ->
  (Parent.delta, [ `Decode_failure ]) result Ssr_setrecon.Comm.party
(** Bob's step: he walks his stream once for level 1, his index of child
    hashes and his digest, and again for the higher levels and T* only
    once level 1 has decoded; he pairs every positive with his differing
    children ({!Encoding.pairing}) and accepts the delta only if it lands
    on Alice's guard. A retry driver that pins the plan's [enc_seed] can
    pass one [memo] to all attempts ([Resilient.reconcile_sos] does). *)
