(** The cascading IBLTs-of-IBLTs protocol (paper §3.2, Algorithm 2,
    Theorem 3.7, and the doubling extension of Corollary 3.8).

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
    is exactly the structure of the paper's X_i / Y_i analysis. *)

type outcome = {
  delta : Parent.delta;  (** What Bob learned: Alice-only and Bob-only children. *)
  levels : int;  (** Number of cascade levels used (the paper's t). *)
  used_star : bool;  (** Whether the direct-encoding table T* was sent. *)
  recovered_per_level : int array;
      (** Alice-only children recovered at each level (and at T* last if
          present); sums to the length of [delta.a_only]. *)
  stats : Ssr_setrecon.Comm.stats;
}

type error = [ `Decode_failure of Ssr_setrecon.Comm.stats ]

val reconcile_known :
  seed:int64 -> d:int -> u:int -> h:int -> ?d_hat:int -> ?s_bound:int -> ?k:int ->
  alice:Parent.t -> bob:Parent.t -> unit -> (outcome, error) result
(** Theorem 3.7: one round (all level tables in a single message). [u] and
    [h] size the T* direct encoding; [h] should bound every child's size. *)

val reconcile_unknown :
  seed:int64 -> u:int -> h:int -> ?s_bound:int -> ?k:int -> ?max_d:int ->
  alice:Parent.t -> bob:Parent.t -> unit -> (outcome, error) result
(** Corollary 3.8: repeated doubling on d; O(log d) rounds. *)

val run_stream :
  comm:Ssr_setrecon.Comm.t -> seed:int64 -> enc_seed:int64 option -> memo:Enc_cache.t option ->
  d:int -> d_hat:int -> s_bound:int -> u:int -> h:int -> k:int ->
  alice:Parent.stream -> bob:Parent.stream -> (outcome, [ `Decode_failure ]) result
(** One attempt threaded through a caller-supplied recorder (for retry
    drivers and transports); the outcome's stats are cumulative for [comm].
    The only build path: the levels are built by chunked passes over the
    {!Parent.stream} views ({!Parent.stream_of_t} for materialized parents)
    in bounded memory, the 8-byte guard carries {!Parent.stream_hash}, and
    the result is the O(d) delta. Alice builds every level table, T* and
    her digest in one walk. Bob builds his level-1 table, his index of
    child hashes and his digest in one walk before the decode, and every
    higher-level table and T* in a second walk only once level 1 has
    decoded, so a failed level-1 decode walks his stream once. Each pass
    folds each child into every table it builds, four keys at a time
    through reused key buffers per level ({!Encoding.fold},
    {!Direct.fold}); the O(d) re-insertions of known differing children
    encode afresh ({!Encoding.encode}, {!Direct.encode}). Each level
    builds Bob's differing child tables once ({!Encoding.pairing}).
    [enc_seed] (default: [seed]) salts only the per-level child-encoding
    configs; outer and T* tables stay salted by the per-attempt [seed]. A
    retry driver that pins it across attempts re-derives identical child
    encodings, and can pass one [memo] to all of them so that later
    attempts reuse the level encodings of earlier ones
    ([Resilient.reconcile_sos] does). Single attempts pass [None]. *)
