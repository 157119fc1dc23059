(** Persistent per-shard state with incrementally maintained sketches.

    A shard owns a member set and a sketch bundle kept in lock-step with
    it: a prefix of N cells of the members' rateless stream
    ({!Ssr_sketch.Rateless}; XOR-linear, so {!apply} is one signed walk of
    the key over the prefix, about [2 ln N] member cells), an L0
    difference estimator, and a whole-set XOR hash for O(1) incremental
    verification. A reconcile session never rebuilds anything: it pins a
    {!snapshot}, one copy of the N-cell prefix ([16 N] bytes, not the
    set), and the shard keeps mutating underneath it. Every prefix of the
    stream is a valid sketch, so one snapshot serves a window of any size.

    Invariant: after any interleaving of {!apply} calls the prefix equals,
    byte for byte, [Rateless.cells (Rateless.source_of_ints ~seed
    members) ~lo:0 ~hi:N] with [seed = prefix_seed].

    The estimator's saturating counters cannot express deletion, so it is
    refreshed epoch-style: a removal marks its key {e tainted} (still
    counted, no longer a member) and the bundle rebuilds the estimator
    from the member set once the tainted count or the mutation count
    since the last refresh crosses its threshold. Between
    refreshes {!estimate_diff} adds the tainted count as slack, so the
    estimate stays an upper bound on the error it could have absorbed.

    All seed derivations live here so a client can build byte-compatible
    sketches for any (server seed, shard) without a [t]. *)

type mutation = Add of int | Remove of int

type t

val default_rung_caps : int array
(** [[|1024|]]: the prefix holds [2 * 1024] cells. *)

val prefix_cells : rung_caps:int array -> check_bits:int -> int
(** N, the cells of the maintained prefix: twice the largest entry of
    [rung_caps]. The two parameters remain from the IBLT ladder the
    prefix replaced; [check_bits] must be 32, the rateless cell's
    checksum width. Raises [Invalid_argument] on any other width, or on
    an empty or non-positive [rung_caps]. *)

val create :
  server_seed:int64 ->
  id:int ->
  ?rung_caps:int array ->
  ?check_bits:int ->
  ?refresh_every:int ->
  ?tainted_max:int ->
  unit ->
  t
(** An empty shard whose prefix holds {!prefix_cells} cells (defaults:
    {!default_rung_caps}, 32). [refresh_every] (default 4096) and
    [tainted_max] (default 64) bound the epoch length in mutations and in
    absorbed removals respectively. *)

val id : t -> int
val version : t -> int
(** Total mutations applied (the epoch coordinate sessions pin). *)

val xor_hash : t -> int
(** XOR of the keyed 62-bit hashes of every member: updates in O(1) per
    mutation and composes over symmetric differences. *)

val mem : t -> int -> bool
val members : t -> int array

val apply : t -> mutation -> bool
(** Apply one mutation: one signed walk of the key over the prefix
    ({!Ssr_sketch.Rateless.write_int}). Set semantics: adding a present
    key or removing an absent one is a no-op returning [false] (and does
    not advance {!version}). *)

val refreshes : t -> int
(** Epoch refreshes performed so far (test hook). *)

(** {1 Seed derivation shared with clients} *)

val prefix_seed : server_seed:int64 -> shard:int -> int64
(** The rateless stream's seed. *)

val hash_fn : server_seed:int64 -> shard:int -> Ssr_util.Hashing.fn
val l0_seed : server_seed:int64 -> shard:int -> int64

(** {1 Estimation} *)

val l0_of_client_bytes_opt : t -> Bytes.t -> Ssr_sketch.L0_estimator.t option
(** Total parse of a client's serialized L0 (built with this shard's
    {!l0_seed} and the default shape, members updated on side [S2]). *)

val estimate_diff : t -> client_l0:Ssr_sketch.L0_estimator.t -> int
(** Estimated |server Δ client| from the merged L0 pair, plus the
    tainted-count slack. *)

(** {1 Epoch snapshots} *)

type snapshot

val snapshot : t -> snapshot
(** Pin the current epoch: one copy of the prefix ([16 N] bytes,
    independent of cardinality) plus the version, cardinality and XOR
    hash. The shard may keep mutating; the snapshot does not change. *)

val snap_version : snapshot -> int
val snap_cardinality : snapshot -> int
val snap_xor_hash : snapshot -> int

val snap_window : snapshot -> lo:int -> hi:int -> Bytes.t
(** A fresh copy of the pinned cells [\[lo, hi)]; raises
    [Invalid_argument] unless [0 <= lo <= hi <= N]. *)
