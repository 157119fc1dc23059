module Prng = Ssr_util.Prng
module Clock = Ssr_transport.Clock
module Network = Ssr_transport.Network
module Comm = Ssr_setrecon.Comm

type cfg = {
  seed : int64;
  shards : int;
  shard_size : int;
  clients : int;
  client_delta : int;
  hot_pool : int;
  mutation_batches : int;
  mutation_batch_size : int;
  arrival_gap_us : int;
  latency_us : int;
  jitter_us : int;
  drop : float;
  max_sessions_per_shard : int;
  admissions_per_round : int;
  retry_after_us : int;
  deadline_us : int;
}

let default_cfg ~seed =
  {
    seed;
    shards = 8;
    shard_size = 4096;
    clients = 1000;
    client_delta = 16;
    hot_pool = 64;
    mutation_batches = 50;
    mutation_batch_size = 32;
    arrival_gap_us = 500;
    latency_us = 2_000;
    jitter_us = 500;
    drop = 0.0;
    max_sessions_per_shard = 256;
    admissions_per_round = 64;
    retry_after_us = 50_000;
    deadline_us = 3_600_000_000;
  }

let smoke_cfg ~seed =
  { (default_cfg ~seed) with shard_size = 1024; clients = 300; mutation_batches = 20 }

type report = {
  clients : int;
  completed : int;
  failed : int;
  rejected_tries : int;
  escalations : int;
  mutations_applied : int;
  elapsed_us : int;
  sessions_per_sec : float;
  p50_us : int;
  p99_us : int;
  wire_bytes : int;
  transcript_digest : string;
}

(* Disjoint key ranges by construction: base members, the mutation hot
   pool, and per-client additions can never collide, so set semantics
   in the generator mirrors need no global dedup. *)
let base_key ~shard i = (shard lsl 44) + i
let hot_key ~shard j = (shard lsl 44) + (1 lsl 40) + j
let added_key ~client j = (1 lsl 60) + (client lsl 16) + j

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0 else sorted.(min (n - 1) (q * n / 100))

let run cfg =
  if cfg.client_delta > 0xFFFF then invalid_arg "Load_gen.run: client_delta too large";
  let clock = Clock.create () in
  let base_server_cfg = Server.default_config ~seed:cfg.seed ~shards:cfg.shards () in
  let server_cfg =
    {
      base_server_cfg with
      max_sessions_per_shard = cfg.max_sessions_per_shard;
      admissions_per_round = cfg.admissions_per_round;
      retry_after_us = cfg.retry_after_us;
    }
  in
  let server = Server.create ~clock server_cfg in
  let mutations_applied = ref 0 in
  (* Initial fill through the daemon's own ingest path. *)
  let fill =
    Array.init (cfg.shards * cfg.shard_size) (fun idx ->
        let shard = idx / cfg.shard_size and i = idx mod cfg.shard_size in
        (shard, Shard.Add (base_key ~shard i)))
  in
  mutations_applied := !mutations_applied + Server.apply_batch server fill;
  (* Shared client-side base structures, one per shard. *)
  let bases =
    Array.init cfg.shards (fun shard ->
        Client.Base.create ~server_seed:cfg.seed ~shard ~rung_caps:server_cfg.Server.rung_caps
          ~check_bits:server_cfg.Server.check_bits
          ~members:(Array.init cfg.shard_size (fun i -> base_key ~shard i)))
  in
  (* Clients, each with its own network; one handler routes both
     directions. *)
  let nets = Array.make cfg.clients None in
  let clients =
    Array.init cfg.clients (fun i ->
        let shard = i mod cfg.shards in
        let rng = Prng.create ~seed:(Prng.derive ~seed:cfg.seed ~tag:(0xC11E00 + i)) in
        let n_add = cfg.client_delta / 2 in
        let n_rem = cfg.client_delta - n_add in
        let added = Array.init n_add (fun j -> added_key ~client:i j) in
        let removed =
          let seen = Hashtbl.create n_rem in
          Array.init n_rem (fun _ ->
              let rec draw () =
                let idx = Prng.int_below rng cfg.shard_size in
                if Hashtbl.mem seen idx then draw ()
                else begin
                  Hashtbl.add seen idx ();
                  base_key ~shard idx
                end
              in
              draw ())
        in
        let ncfg =
          Network.config_with ~drop:cfg.drop ~latency_us:cfg.latency_us ~jitter_us:cfg.jitter_us
            ~seed:(Prng.derive ~seed:cfg.seed ~tag:(0x7E700 + i))
            ()
        in
        let net = Network.create ~clock ncfg in
        nets.(i) <- Some net;
        let conn =
          Server.connect server ~reply:(fun b -> Network.send net Comm.B_to_a ~label:"srv" b)
        in
        let cl =
          Client.create ~clock
            ~send:(fun b -> Network.send net Comm.A_to_b ~label:"cli" b)
            ~base:bases.(shard) ~session:(i + 1) ~added ~removed ()
        in
        Network.on_deliver net (fun dir bytes ->
            match dir with
            | Comm.A_to_b -> Server.receive server conn bytes
            | Comm.B_to_a -> Client.on_receive cl bytes);
        (* Staggered arrival. *)
        let at_us = (i * cfg.arrival_gap_us) + Prng.int_below rng (max 1 cfg.arrival_gap_us) in
        ignore (Clock.schedule clock ~at_us (fun () -> Client.start cl));
        cl)
  in
  (* Seeded mutation stream: toggles inside the hot pool, mirrored so
     every batch entry is effective and the ground-truth count exact. *)
  let mrng = Prng.create ~seed:(Prng.derive ~seed:cfg.seed ~tag:0x307A7E) in
  let hot_present = Array.make_matrix cfg.shards cfg.hot_pool false in
  let arrival_span = cfg.clients * cfg.arrival_gap_us in
  for b = 0 to cfg.mutation_batches - 1 do
    let batch =
      Array.init cfg.mutation_batch_size (fun _ ->
          let shard = Prng.int_below mrng cfg.shards in
          let j = Prng.int_below mrng cfg.hot_pool in
          let m =
            if hot_present.(shard).(j) then Shard.Remove (hot_key ~shard j)
            else Shard.Add (hot_key ~shard j)
          in
          hot_present.(shard).(j) <- not hot_present.(shard).(j);
          (shard, m))
    in
    let at_us = (b + 1) * arrival_span / (cfg.mutation_batches + 1) in
    ignore
      (Clock.schedule clock ~at_us (fun () ->
           mutations_applied := !mutations_applied + Server.apply_batch server batch))
  done;
  let all_terminal () =
    Array.for_all (fun cl -> Client.outcome cl <> Client.Pending) clients
  in
  Clock.run_until clock ~deadline_us:cfg.deadline_us ~stop:all_terminal;
  (* Collect. *)
  let completed = ref 0
  and failed = ref 0
  and rejected = ref 0
  and escalations = ref 0
  and latencies = ref [] in
  Array.iter
    (fun cl ->
      match Client.outcome cl with
      | Client.Succeeded { latency_us; rejects; escalations = esc; _ } ->
        incr completed;
        rejected := !rejected + rejects;
        escalations := !escalations + esc;
        latencies := latency_us :: !latencies
      | Client.Failed _ | Client.Pending -> incr failed)
    clients;
  let lats = Array.of_list !latencies in
  Array.sort compare lats;
  let elapsed_us = Clock.now_us clock in
  let buf = Buffer.create 65536 and wire_bytes = ref 0 in
  Array.iteri
    (fun i net ->
      match net with
      | None -> ()
      | Some net ->
        Buffer.add_string buf (Printf.sprintf "client %d\n" i);
        List.iter
          (fun (d : Network.delivery) ->
            wire_bytes := !wire_bytes + Bytes.length d.Network.bytes;
            Buffer.add_string buf
              (Printf.sprintf "%d/%d %c %d->%d %s\n" d.Network.index d.Network.copy
                 (match d.Network.direction with Comm.A_to_b -> '>' | Comm.B_to_a -> '<')
                 d.Network.sent_us d.Network.delivered_us
                 (Digest.to_hex (Digest.bytes d.Network.bytes))))
          (Network.transcript net))
    nets;
  {
    clients = cfg.clients;
    completed = !completed;
    failed = !failed;
    rejected_tries = !rejected;
    escalations = !escalations;
    mutations_applied = !mutations_applied;
    elapsed_us;
    sessions_per_sec =
      (if elapsed_us = 0 then 0. else float_of_int !completed *. 1e6 /. float_of_int elapsed_us);
    p50_us = percentile lats 50;
    p99_us = percentile lats 99;
    wire_bytes = !wire_bytes;
    transcript_digest = Digest.to_hex (Digest.string (Buffer.contents buf));
  }
