module Iblt = Ssr_sketch.Iblt
module L0 = Ssr_sketch.L0_estimator
module Hashing = Ssr_util.Hashing
module Prng = Ssr_util.Prng
module Metrics = Ssr_obs.Metrics

type mutation = Add of int | Remove of int

let default_rung_caps = [| 16; 64; 256; 1024 |]

let m_applied = Metrics.counter "server.shard.applied"
let m_noop = Metrics.counter "server.shard.noop"
let m_refreshes = Metrics.counter "server.shard.refreshes"
let m_snapshots = Metrics.counter "server.shard.snapshots"

(* Seed derivation: every sketch seed is a pure function of the server
   seed and the (shard, rung) coordinates, so a client rebuilds
   byte-compatible sketches from configuration alone. *)
let shard_seed ~server_seed ~shard ~tag =
  Prng.derive ~seed:(Prng.derive ~seed:server_seed ~tag:(0x5D00 + shard)) ~tag

let rung_seed ~server_seed ~shard ~rung = shard_seed ~server_seed ~shard ~tag:(0x0100 + rung)

let rung_params ~server_seed ~shard ~rung ~cap : Iblt.params =
  {
    cells = Iblt.recommended_cells ~k:4 ~diff_bound:cap;
    k = 4;
    key_len = 8;
    seed = rung_seed ~server_seed ~shard ~rung;
  }

let hash_fn ~server_seed ~shard =
  Hashing.make ~seed:(shard_seed ~server_seed ~shard ~tag:0x0A5A) ~tag:0x5E44

let l0_seed ~server_seed ~shard = shard_seed ~server_seed ~shard ~tag:0x0B1B

type t = {
  id : int;
  server_seed : int64;
  check_bits : int;
  caps : int array;
  members : (int, unit) Hashtbl.t;
  ladder : Iblt.t array;
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
  if Array.length rung_caps = 0 then invalid_arg "Shard.create: empty rung ladder";
  if refresh_every < 1 || tainted_max < 0 then invalid_arg "Shard.create: bad refresh bounds";
  {
    id;
    server_seed;
    check_bits;
    caps = Array.copy rung_caps;
    members = Hashtbl.create 1024;
    ladder =
      Array.init (Array.length rung_caps) (fun r ->
          Iblt.create ~check_bits (rung_params ~server_seed ~shard:id ~rung:r ~cap:rung_caps.(r)));
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
let cardinality t = Hashtbl.length t.members
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

let num_rungs t = Array.length t.ladder
let rung_caps t = Array.copy t.caps
let refreshes t = t.refreshes
let tainted_count t = Hashtbl.length t.tainted

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
        Array.iter (fun rung -> Iblt.insert_int rung x) t.ladder;
        t.xor_hash <- t.xor_hash lxor Hashing.hash_int t.fn x;
        if Hashtbl.mem t.tainted x then Hashtbl.remove t.tainted x
        else L0.update t.l0 L0.S1 x;
        true
      end
    | Remove x ->
      if Hashtbl.mem t.members x then begin
        Hashtbl.remove t.members x;
        Array.iter (fun rung -> Iblt.delete_int rung x) t.ladder;
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

type snapshot = {
  s_version : int;
  s_n : int;
  s_xor_hash : int;
  s_ladder : Iblt.t array;
}

let snapshot t =
  Metrics.incr m_snapshots;
  {
    s_version = t.version;
    s_n = Hashtbl.length t.members;
    s_xor_hash = t.xor_hash;
    s_ladder = Array.map Iblt.copy t.ladder;
  }

let snap_version s = s.s_version
let snap_cardinality s = s.s_n
let snap_xor_hash s = s.s_xor_hash

let snap_rung s i =
  if i < 0 || i >= Array.length s.s_ladder then invalid_arg "Shard.snap_rung: rung out of range";
  s.s_ladder.(i)

let snap_num_rungs s = Array.length s.s_ladder
