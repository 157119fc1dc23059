(* server_churn: reads beside writes against the reconciliation daemon.

   Load_gen-style traffic against [Server]: 8 shards of 4096 members, 1000
   clients arriving on a virtual-time schedule (open loop in virtual time,
   500 us mean gap) over 1%-drop 2 ms +- 0.5 ms links, and a mutation
   stream of 16 mutations per session (ten times Load_gen's default) so
   that [Server.apply_batch] takes a measurable share of wall time. The
   sketch layer is used incrementally here, not bulk-built: O(k)
   [Shard.apply], epoch snapshots, estimator refreshes, pump fan-out,
   admission control and the wire parsers run only in this workload.

   Every pass replays the same simulation (fresh server, same inputs), so
   each session's counts must repeat exactly from pass to pass. *)

module Prng = Ssr_util.Prng
module Comm = Ssr_setrecon.Comm
module Clock = Ssr_transport.Clock
module Network = Ssr_transport.Network
module Server = Ssr_server.Server
module Shard = Ssr_server.Shard
module Client = Ssr_server.Client

let shards = 8
let shard_size = 4096
let clients = 1000
let client_delta = 16
let hot_pool = 256
let mutations_per_session = 16
let batch_size = 32
let arrival_gap_us = 500
let deadline_us = 3_600_000_000

(* Disjoint key ranges, as in Load_gen: base members, the mutation hot
   pool and client additions never collide. *)
let base_key ~shard i = (shard lsl 44) + i
let hot_key ~shard j = (shard lsl 44) + (1 lsl 40) + j
let added_key ~client j = (1 lsl 60) + (client lsl 16) + j

type client_input = { shard : int; at_us : int; added : int array; removed : int array }

type inputs = {
  seed : int64;
  cl : client_input array;
  batches : (int * (int * Shard.mutation) array) array;  (** (at_us, batch) *)
  hot_after : int list array array;
      (** [hot_after.(k).(shard)]: the shard's hot keys, sorted, once the
          first [k] batches have applied. *)
}

let generate ~seed =
  let cl =
    Array.init clients (fun i ->
        let shard = i mod shards in
        let rng = Prng.create ~seed:(Prng.derive ~seed ~tag:(0xC11E00 + i)) in
        let n_add = client_delta / 2 in
        let added = Array.init n_add (fun j -> added_key ~client:i j) in
        let seen = Hashtbl.create client_delta in
        let rec draw () =
          let idx = Prng.int_below rng shard_size in
          if Hashtbl.mem seen idx then draw ()
          else begin
            Hashtbl.add seen idx ();
            base_key ~shard idx
          end
        in
        let removed = Array.init (client_delta - n_add) (fun _ -> draw ()) in
        let at_us = (i * arrival_gap_us) + Prng.int_below rng arrival_gap_us in
        { shard; at_us; added; removed })
  in
  let n_batches = clients * mutations_per_session / batch_size in
  let mrng = Prng.create ~seed:(Prng.derive ~seed ~tag:0x307A7E) in
  let present = Array.make_matrix shards hot_pool false in
  let snapshot () =
    Array.init shards (fun s ->
        List.filter_map (fun j -> if present.(s).(j) then Some (hot_key ~shard:s j) else None)
          (List.init hot_pool Fun.id))
  in
  let hot_after = Array.make (n_batches + 1) [||] in
  hot_after.(0) <- snapshot ();
  let span = clients * arrival_gap_us in
  let batches =
    Array.init n_batches (fun b ->
        let batch =
          Array.init batch_size (fun _ ->
              let shard = Prng.int_below mrng shards in
              let j = Prng.int_below mrng hot_pool in
              let m = if present.(shard).(j) then Shard.Remove (hot_key ~shard j) else Shard.Add (hot_key ~shard j) in
              present.(shard).(j) <- not present.(shard).(j);
              (shard, m))
        in
        hot_after.(b + 1) <- snapshot ();
        ((b + 1) * span / (n_batches + 1), batch))
  in
  { seed; cl; batches; hot_after }

let span_run = Span.acc "server.run"
let span_apply = Span.acc "server.apply"
let span_receive = Span.acc "server.receive"
let span_client_start = Span.acc "client.start"
let span_client_receive = Span.acc "client.on_receive"

(* Mutations applied by the churn stream (the fill is set-up). *)
let churn_mutations = ref 0

let sorted_array a = List.sort compare (Array.to_list a)

(* A session is pinned to the epoch current when its request was
   admitted, so its server-only keys are the removed base keys plus the
   hot keys of some batch boundary within the session's lifetime.
   Boundary k holds from batch k's time until batch k + 1's. *)
let check_diff inp i (client_only, server_only) ~end_us =
  let c = inp.cl.(i) in
  let removed = sorted_array c.removed in
  let n = Array.length inp.batches in
  let holds_from k = if k = 0 then 0 else fst inp.batches.(k - 1) in
  let holds_until k = if k = n then max_int else fst inp.batches.(k) in
  let rec scan k =
    k <= n
    && holds_from k <= end_us
    && ((holds_until k >= c.at_us && List.merge compare removed inp.hot_after.(k).(c.shard) = server_only)
       || scan (k + 1))
  in
  client_only = sorted_array c.added && scan 0

let simulate inp =
  Harness.collect_garbage ();
  let clock, server, bases =
    Harness.setup (fun () ->
        let clock = Clock.create () in
        let cfg = Server.default_config ~seed:inp.seed ~shards () in
        let server = Server.create ~clock cfg in
        ignore
          (Server.apply_batch server
             (Array.init (shards * shard_size) (fun idx ->
                  let shard = idx / shard_size in
                  (shard, Shard.Add (base_key ~shard (idx mod shard_size))))));
        let bases =
          Array.init shards (fun shard ->
              Client.Base.create ~server_seed:inp.seed ~shard ~rung_caps:cfg.Server.rung_caps
                ~check_bits:cfg.Server.check_bits
                ~members:(Array.init shard_size (fun i -> base_key ~shard i)))
        in
        (clock, server, bases))
  in
  let bytes = Array.make clients 0
  and sends = Array.make clients 0
  and rounds = Array.make clients 0
  and last_dir = Array.make clients None
  and start_wall = Array.make clients 0.
  and end_wall = Array.make clients 0.
  and finished = ref 0 in
  let put net i dir b =
    bytes.(i) <- bytes.(i) + Bytes.length b;
    sends.(i) <- sends.(i) + 1;
    if last_dir.(i) <> Some dir then begin
      rounds.(i) <- rounds.(i) + 1;
      last_dir.(i) <- Some dir
    end;
    Network.send net dir ~label:"" b
  in
  let cls =
    Array.mapi
      (fun i c ->
        let net =
          Network.create ~clock
            (Network.config_with ~drop:0.01 ~latency_us:2_000 ~jitter_us:500
               ~seed:(Prng.derive ~seed:inp.seed ~tag:(0x7E700 + i)) ())
        in
        let conn = Server.connect server ~reply:(put net i Comm.B_to_a) in
        let cl =
          Client.create ~clock ~send:(put net i Comm.A_to_b) ~base:bases.(c.shard) ~session:(i + 1)
            ~added:c.added ~removed:c.removed ()
        in
        Network.on_deliver net (fun dir b ->
            match dir with
            | Comm.A_to_b -> Span.wrap span_receive (fun () -> Server.receive server conn b)
            | Comm.B_to_a ->
              Span.wrap span_client_receive (fun () -> Client.on_receive cl b);
              if end_wall.(i) = 0. && Client.outcome cl <> Client.Pending then begin
                end_wall.(i) <- Harness.now_s ();
                incr finished
              end);
        ignore
          (Clock.schedule clock ~at_us:c.at_us (fun () ->
               start_wall.(i) <- Harness.now_s ();
               Span.wrap span_client_start (fun () -> Client.start cl)));
        cl)
      inp.cl
  in
  Array.iter
    (fun (at_us, batch) ->
      ignore
        (Clock.schedule clock ~at_us (fun () ->
             churn_mutations := !churn_mutations + Span.wrap span_apply (fun () -> Server.apply_batch server batch))))
    inp.batches;
  (* A client can also fail on its own timer; every 1024 events the stop
     check sweeps for those. *)
  let events = ref 0 in
  let sweep () =
    Array.iteri
      (fun i cl ->
        if end_wall.(i) = 0. && Client.outcome cl <> Client.Pending then begin
          end_wall.(i) <- Harness.now_s ();
          incr finished
        end)
      cls
  in
  let stop () =
    incr events;
    if !events land 1023 = 0 then sweep ();
    !finished = clients
  in
  let t0 = Harness.now_s () in
  Span.wrap span_run (fun () -> Clock.run_until clock ~deadline_us ~stop);
  let busy_s = Harness.now_s () -. t0 in
  sweep ();
  (* A session still pending at the deadline was in flight until the end. *)
  Array.iteri (fun i e -> if e = 0. then end_wall.(i) <- t0 +. busy_s) end_wall;
  let samples =
    Array.mapi
      (fun i cl ->
        let c = inp.cl.(i) in
        let status, virtual_us, diff =
          match Client.outcome cl with
          | Client.Succeeded { latency_us; _ } -> (
            let end_us = c.at_us + latency_us in
            match Client.recovered_diff cl with
            | Some d when check_diff inp i d ~end_us ->
              (Harness.Verified, latency_us, List.length (fst d) + List.length (snd d))
            | _ -> (Harness.Wrong (Printf.sprintf "server_churn session %d: diff differs from ground truth" i), latency_us, 0))
          | Client.Failed _ | Client.Pending -> (Harness.Failed, Clock.now_us clock - c.at_us, 0)
        in
        {
          Harness.stack = "session";
          status;
          wall_ms = (end_wall.(i) -. start_wall.(i)) *. 1e3;
          virtual_us;
          wire_bytes = bytes.(i);
          payload_bits = 8 * bytes.(i);
          bound_bits = float_of_int (diff * 62);
          rounds = rounds.(i);
          messages = sends.(i);
        })
      cls
  in
  (samples, busy_s)

let run ~seed ~seconds =
  let inp = generate ~seed in
  Printf.printf
    "server_churn: %d shards x %d members, %d clients per pass (open loop in virtual time, %d us mean gap), %d mutations per session\n"
    shards shard_size clients arrival_gap_us mutations_per_session;
  let t0 = Harness.now_s () in
  let first, busy0 = simulate inp in
  let passes = ref [ first ] and busy = ref busy0 and errors = ref [] and pass = ref 1 in
  while Harness.now_s () -. t0 < seconds do
    let s, b = simulate inp in
    Array.iteri
      (fun i x ->
        if not (Harness.same_counts x first.(i)) then
          errors := Printf.sprintf "pass %d session %d: counts differ from pass 0" !pass i :: !errors)
      s;
    passes := s :: !passes;
    busy := !busy +. b;
    incr pass
  done;
  let errors = List.rev !errors in
  {
    Harness.samples = Array.concat (List.rev !passes);
    prefix = clients;
    busy_s = !busy;
    replay = (fun () -> errors);
  }
