module Rateless = Ssr_sketch.Rateless
module L0 = Ssr_sketch.L0_estimator
module Hashing = Ssr_util.Hashing
module Prng = Ssr_util.Prng
module Metrics = Ssr_obs.Metrics

type mutation = Add of int | Remove of int

let default_rung_caps = [| 1024 |]

let m_applied = Metrics.counter "server.shard.applied"
let m_noop = Metrics.counter "server.shard.noop"
let m_refreshes = Metrics.counter "server.shard.refreshes"
let m_snapshots = Metrics.counter "server.shard.snapshots"

let prefix_cells ~rung_caps ~check_bits =
  if check_bits <> 32 then
    invalid_arg "Shard: check_bits must be 32, the rateless cell's checksum width";
  let top = Array.fold_left max 0 rung_caps in
  if Array.exists (fun c -> c < 1) rung_caps || top < 1 || 2 * top > Rateless.max_index then
    invalid_arg "Shard: rung_caps must be non-empty, positive and within the stream";
  2 * top

(* Seed derivation: every sketch seed is a pure function of the server
   seed and the shard, so a client rebuilds byte-compatible sketches from
   configuration alone. *)
let shard_seed ~server_seed ~shard ~tag =
  Prng.derive ~seed:(Prng.derive ~seed:server_seed ~tag:(0x5D00 + shard)) ~tag

let prefix_seed ~server_seed ~shard = shard_seed ~server_seed ~shard ~tag:0x0200

let hash_fn ~server_seed ~shard =
  Hashing.make ~seed:(shard_seed ~server_seed ~shard ~tag:0x0A5A) ~tag:0x5E44

let l0_seed ~server_seed ~shard = shard_seed ~server_seed ~shard ~tag:0x0B1B

type t = {
  id : int;
  server_seed : int64;
  members : (int, unit) Hashtbl.t;
  cells : int;
  prefix : Bytes.t;  (* cells [0, cells) of the members' stream *)
  writer : Rateless.writer;
  fn : Hashing.fn;
  mutable l0 : L0.t;
  (* Keys removed since the last estimator refresh: still counted in the
     saturating estimator, no longer members. A re-add of a tainted key
     just clears the taint — the estimator already counts it. *)
  tainted : (int, unit) Hashtbl.t;
  mutable xor_hash : int;
  mutable version : int;
  mutable since_refresh : int;
  mutable refreshes : int;
  refresh_every : int;
  tainted_max : int;
}

let create ~server_seed ~id ?(rung_caps = default_rung_caps) ?(check_bits = 32)
    ?(refresh_every = 4096) ?(tainted_max = 64) () =
  let cells = prefix_cells ~rung_caps ~check_bits in
  if refresh_every < 1 || tainted_max < 0 then invalid_arg "Shard.create: bad refresh bounds";
  {
    id;
    server_seed;
    members = Hashtbl.create 1024;
    cells;
    prefix = Bytes.make (cells * Rateless.cell_bytes) '\000';
    writer = Rateless.writer ~seed:(prefix_seed ~server_seed ~shard:id);
    fn = hash_fn ~server_seed ~shard:id;
    l0 = L0.create ~seed:(l0_seed ~server_seed ~shard:id) ();
    tainted = Hashtbl.create 64;
    xor_hash = 0;
    version = 0;
    since_refresh = 0;
    refreshes = 0;
    refresh_every;
    tainted_max;
  }

let id t = t.id
let version t = t.version
let xor_hash t = t.xor_hash
let mem t x = Hashtbl.mem t.members x

let members t =
  let out = Array.make (Hashtbl.length t.members) 0 in
  let i = ref 0 in
  Hashtbl.iter
    (fun x () ->
      out.(!i) <- x;
      incr i)
    t.members;
  out

let refreshes t = t.refreshes

(* Rebuild the saturating estimator from the member set and clear the
   taint. O(n), amortized over [refresh_every] mutations. *)
let refresh t =
  let xs = members t in
  let l0 = L0.create ~seed:(l0_seed ~server_seed:t.server_seed ~shard:t.id) () in
  L0.update_all l0 L0.S1 xs;
  t.l0 <- l0;
  Hashtbl.reset t.tainted;
  t.since_refresh <- 0;
  t.refreshes <- t.refreshes + 1;
  Metrics.incr m_refreshes

let maybe_refresh t =
  if t.since_refresh >= t.refresh_every || Hashtbl.length t.tainted > t.tainted_max then refresh t

let apply t m =
  let changed =
    match m with
    | Add x ->
      if x < 0 then invalid_arg "Shard.apply: negative key";
      if Hashtbl.mem t.members x then false
      else begin
        Hashtbl.replace t.members x ();
        Rateless.write_int t.writer ~sign:1 x ~lo:0 ~hi:t.cells t.prefix;
        t.xor_hash <- t.xor_hash lxor Hashing.hash_int t.fn x;
        if Hashtbl.mem t.tainted x then Hashtbl.remove t.tainted x
        else L0.update t.l0 L0.S1 x;
        true
      end
    | Remove x ->
      if Hashtbl.mem t.members x then begin
        Hashtbl.remove t.members x;
        Rateless.write_int t.writer ~sign:(-1) x ~lo:0 ~hi:t.cells t.prefix;
        t.xor_hash <- t.xor_hash lxor Hashing.hash_int t.fn x;
        Hashtbl.replace t.tainted x ();
        true
      end
      else false
  in
  if changed then begin
    t.version <- t.version + 1;
    t.since_refresh <- t.since_refresh + 1;
    Metrics.incr m_applied;
    maybe_refresh t
  end
  else Metrics.incr m_noop;
  changed

let l0_of_client_bytes_opt t bytes =
  L0.of_bytes_opt ~seed:(l0_seed ~server_seed:t.server_seed ~shard:t.id) bytes

let estimate_diff t ~client_l0 =
  let merged = L0.merge t.l0 client_l0 in
  L0.query merged + Hashtbl.length t.tainted

type snapshot = { s_version : int; s_n : int; s_xor_hash : int; s_prefix : Bytes.t }

let snapshot t =
  Metrics.incr m_snapshots;
  {
    s_version = t.version;
    s_n = Hashtbl.length t.members;
    s_xor_hash = t.xor_hash;
    s_prefix = Bytes.copy t.prefix;
  }

let snap_version s = s.s_version
let snap_cardinality s = s.s_n
let snap_xor_hash s = s.s_xor_hash

let snap_window s ~lo ~hi =
  let cb = Rateless.cell_bytes in
  if lo < 0 || hi < lo || hi * cb > Bytes.length s.s_prefix then
    invalid_arg "Shard.snap_window: outside the prefix";
  Bytes.sub s.s_prefix (lo * cb) ((hi - lo) * cb)
