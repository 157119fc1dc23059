module Prng = Ssr_util.Prng
module Comm = Ssr_setrecon.Comm
module Metrics = Ssr_obs.Metrics
module Trace = Ssr_obs.Trace

let m_packets = Metrics.counter "net.packets"
let m_copies_delivered = Metrics.counter "net.copies.delivered"
let m_copies_dropped = Metrics.counter "net.copies.dropped"
let m_bytes_delivered = Metrics.counter "net.bytes.delivered"
let m_partition_drops = Metrics.counter "net.partition_drops"
let m_reordered = Metrics.counter "net.reordered"

type direction = Comm.direction

type partition = {
  from_us : int;
  until_us : int;
  blocks : [ `A_to_b | `B_to_a | `Both ];
}

type config = {
  seed : int64;
  drop_rate : float;
  corrupt_rate : float;
  truncate_rate : float;
  duplicate_rate : float;
  duplicate_copies : int;
  latency_us : int;
  jitter_us : int;
  reorder_rate : float;
  reorder_extra_us : int;
  partitions : partition list;
}

let config_with ?(drop = 0.) ?(corrupt = 0.) ?(truncate = 0.) ?(duplicate = 0.)
    ?(duplicate_copies = 2) ?(latency_us = 0) ?(jitter_us = 0) ?(reorder = 0.) ?reorder_extra_us
    ?(partitions = []) ~seed () =
  let fn = "Network.config_with" in
  Channel.check_rate fn "drop" drop;
  Channel.check_rate fn "corrupt" corrupt;
  Channel.check_rate fn "truncate" truncate;
  Channel.check_rate fn "duplicate" duplicate;
  Channel.check_rate fn "reorder" reorder;
  if latency_us < 0 then invalid_arg "Network.config_with: negative latency_us";
  if jitter_us < 0 then invalid_arg "Network.config_with: negative jitter_us";
  let reorder_extra_us =
    match reorder_extra_us with Some v -> v | None -> 4 * (latency_us + jitter_us)
  in
  { seed; drop_rate = drop; corrupt_rate = corrupt; truncate_rate = truncate;
    duplicate_rate = duplicate; duplicate_copies; latency_us; jitter_us; reorder_rate = reorder;
    reorder_extra_us; partitions }

type delivery = {
  index : int;
  copy : int;
  direction : direction;
  sent_us : int;
  delivered_us : int;
  reordered : bool;
  partitioned : bool;
  bytes : Bytes.t;
}

type t = {
  cfg : config;
  clock : Clock.t;
  channel : Channel.t;
  mutable handler : direction -> Bytes.t -> unit;
  mutable transcript : delivery list; (* newest first *)
  mutable partition_drops : int;
  mutable reorder_count : int;
}

let create ~clock cfg =
  let channel =
    Channel.create
      (Channel.config_with ~drop:cfg.drop_rate ~corrupt:cfg.corrupt_rate
         ~truncate:cfg.truncate_rate ~duplicate:cfg.duplicate_rate
         ~duplicate_copies:cfg.duplicate_copies
         ~seed:(Prng.derive ~seed:cfg.seed ~tag:0xDA_4A) ())
  in
  (* Trace events emitted while this network exists are stamped with its
     virtual clock, making traces replayable and latency-exact. The source
     stays installed afterwards (networks and their clock share a lifetime in
     every driver here); a later [create] simply re-points it. *)
  Trace.set_time_source (fun () -> Clock.now_us clock);
  { cfg; clock; channel; handler = (fun _ _ -> ()); transcript = []; partition_drops = 0;
    reorder_count = 0 }

let on_deliver t handler = t.handler <- handler

let blocks_direction blocks (direction : direction) =
  match (blocks, direction) with
  | `Both, _ -> true
  | `A_to_b, Comm.A_to_b -> true
  | `B_to_a, Comm.B_to_a -> true
  | _ -> false

let in_partition t direction ~at_us =
  List.exists
    (fun p -> at_us >= p.from_us && at_us < p.until_us && blocks_direction p.blocks direction)
    t.cfg.partitions

let record t d = t.transcript <- d :: t.transcript

let send t direction ~label payload =
  let index = Channel.messages_sent t.channel in
  let sent_us = Clock.now_us t.clock in
  Metrics.incr m_packets;
  let copies = Channel.transmit t.channel direction ~label payload in
  (* One generator per packet, keyed by the send index like the channel's own
     fault stream: latency and reorder draws are independent of payload
     contents, so a replay with the same seed and packet sequence reproduces
     the identical delivery schedule. *)
  let rng = Prng.create ~seed:(Prng.derive ~seed:t.cfg.seed ~tag:(0x1A7E + index)) in
  (match copies with
  | [] ->
    Metrics.incr m_copies_dropped;
    record t { index; copy = 0; direction; sent_us; delivered_us = -1; reordered = false;
               partitioned = false; bytes = Bytes.empty }
  | _ -> ());
  List.iteri
    (fun copy bytes ->
      let jitter = if t.cfg.jitter_us > 0 then Prng.int_below rng (t.cfg.jitter_us + 1) else 0 in
      let reordered = t.cfg.reorder_rate > 0. && Prng.bernoulli rng t.cfg.reorder_rate in
      if in_partition t direction ~at_us:sent_us then begin
        t.partition_drops <- t.partition_drops + 1;
        Metrics.incr m_partition_drops;
        Metrics.incr m_copies_dropped;
        record t { index; copy; direction; sent_us; delivered_us = -1; reordered = false;
                   partitioned = true; bytes = Bytes.empty }
      end
      else begin
        if reordered then begin
          t.reorder_count <- t.reorder_count + 1;
          Metrics.incr m_reordered
        end;
        let delay =
          t.cfg.latency_us + jitter + (if reordered then t.cfg.reorder_extra_us else 0)
        in
        let delivered_us = sent_us + delay in
        Metrics.incr m_copies_delivered;
        Metrics.add m_bytes_delivered (Bytes.length bytes);
        record t { index; copy; direction; sent_us; delivered_us; reordered; partitioned = false;
                   bytes };
        ignore
          (Clock.schedule t.clock ~at_us:delivered_us (fun () -> t.handler direction bytes))
      end)
    copies

let faults t = Channel.events t.channel

let transcript t = List.rev t.transcript

let partition_drops t = t.partition_drops

let reorder_count t = t.reorder_count
