module Prng = Ssr_util.Prng
module Comm = Ssr_setrecon.Comm
module Metrics = Ssr_obs.Metrics

let m_data_sent = Metrics.counter "arq.data_sent"
let m_retransmits = Metrics.counter "arq.retransmits"
let m_acks_sent = Metrics.counter "arq.acks_sent"
let m_duplicates = Metrics.counter "arq.duplicates_suppressed"
let m_corrupt = Metrics.counter "arq.corrupt_discarded"
let m_stale = Metrics.counter "arq.stale_deliveries"
let m_timeouts = Metrics.counter "arq.timeouts"
let m_wire_bytes = Metrics.counter "arq.wire_bytes"

type config = {
  rto_us : int;
  rto_cap_us : int;
  rto_jitter_us : int;
  msg_deadline_us : int;
}

let default_config =
  { rto_us = 30_000; rto_cap_us = 240_000; rto_jitter_us = 10_000; msg_deadline_us = 2_000_000 }

type stats = {
  data_sent : int;
  retransmissions : int;
  acks_sent : int;
  duplicates_suppressed : int;
  corrupt_discarded : int;
  stale_deliveries : int;
  timeouts : int;
  wire_bytes : int;
}

(* A packet awaiting acknowledgement: its framed wire image (rebuilt frames
   would be byte-identical; keeping it makes retransmission allocation-free)
   and its live retransmission timer. *)
type pending = {
  seq : int;
  wire : Bytes.t;
  label : string;
  mutable sends : int;
  mutable timer : Clock.event_id option;
}

(* One simplex flow: sender state for [dir], receiver state at the other
   end. A_to_b and B_to_a flows are fully independent, sharing only the
   clock and the network. *)
type flow = {
  dir : Comm.direction;
  tag : int;
  mutable next_seq : int;
  unacked : (int, pending) Hashtbl.t;
  mutable expected : int;
  ooo : (int, Bytes.t) Hashtbl.t;
  app : (int * Bytes.t) Queue.t;
}

type t = {
  cfg : config;
  clk : Clock.t;
  net : Network.t;
  seed : int64;
  ab : flow;
  ba : flow;
  mutable hard_deadline : int option;
  mutable data_sent : int;
  mutable retransmissions : int;
  mutable acks_sent : int;
  mutable duplicates_suppressed : int;
  mutable corrupt_discarded : int;
  mutable stale_deliveries : int;
  mutable timeouts : int;
  mutable wire_bytes : int;
  mutable log : (Comm.direction * int * Bytes.t) list; (* newest first *)
}

let header_bytes = 5

let data_kind = 0
let ack_kind = 1

let encode_packet ~kind ~seq payload =
  let n = Bytes.length payload in
  let out = Bytes.create (header_bytes + n) in
  Bytes.set out 0 (Char.chr kind);
  Bytes.set_int32_le out 1 (Int32.of_int seq);
  Bytes.blit payload 0 out header_bytes n;
  Frame.encode out

(* [Some (kind, seq, payload)] from an undamaged frame; anything else is
   discarded — damaged ARQ traffic is indistinguishable from loss. *)
let decode_packet bytes =
  match Frame.decode bytes with
  | Error _ -> None
  | Ok p ->
    if Bytes.length p < header_bytes then None
    else begin
      let kind = Char.code (Bytes.get p 0) in
      let seq = Int32.to_int (Bytes.get_int32_le p 1) land 0xFFFF_FFFF in
      if kind = data_kind then
        Some (kind, seq, Bytes.sub p header_bytes (Bytes.length p - header_bytes))
      else if kind = ack_kind && Bytes.length p = header_bytes then Some (kind, seq, Bytes.empty)
      else None
    end

let mk_flow dir tag =
  { dir; tag; next_seq = 0; unacked = Hashtbl.create 16; expected = 0; ooo = Hashtbl.create 16;
    app = Queue.create () }

let flow_of t (dir : Comm.direction) = match dir with Comm.A_to_b -> t.ab | Comm.B_to_a -> t.ba

let opposite : Comm.direction -> Comm.direction = function
  | Comm.A_to_b -> Comm.B_to_a
  | Comm.B_to_a -> Comm.A_to_b

let put_on_wire t dir ~label bytes =
  t.wire_bytes <- t.wire_bytes + Bytes.length bytes;
  Metrics.add m_wire_bytes (Bytes.length bytes);
  Network.send t.net dir ~label bytes

(* Retransmission timeout for the [sends]'th retry: capped doubling plus
   deterministic jitter — a pure function of (seed, flow, seq, sends), so a
   replayed run reproduces the exact retransmission schedule. *)
let backoff t flow ~seq ~sends =
  let doubled = t.cfg.rto_us * (1 lsl min sends 20) in
  let base = min t.cfg.rto_cap_us doubled in
  let jitter =
    if t.cfg.rto_jitter_us = 0 then 0
    else begin
      let s = Prng.derive ~seed:t.seed ~tag:(0xA49 + flow.tag) in
      let rng = Prng.create ~seed:(Prng.derive ~seed:s ~tag:((seq * 64) + min sends 63)) in
      Prng.int_below rng (t.cfg.rto_jitter_us + 1)
    end
  in
  base + jitter

let rec arm_timer t flow p =
  let delay = backoff t flow ~seq:p.seq ~sends:(p.sends - 1) in
  p.timer <-
    Some
      (Clock.schedule t.clk ~at_us:(Clock.now_us t.clk + delay) (fun () ->
           if Hashtbl.mem flow.unacked p.seq then begin
             p.sends <- p.sends + 1;
             t.retransmissions <- t.retransmissions + 1;
             Metrics.incr m_retransmits;
             put_on_wire t flow.dir ~label:p.label p.wire;
             arm_timer t flow p
           end))

let send_ack t flow =
  t.acks_sent <- t.acks_sent + 1;
  Metrics.incr m_acks_sent;
  put_on_wire t (opposite flow.dir) ~label:"arq-ack"
    (encode_packet ~kind:ack_kind ~seq:flow.expected Bytes.empty)

let deliver_in_order t flow seq payload =
  flow.expected <- seq + 1;
  Queue.add (seq, payload) flow.app;
  t.log <- (flow.dir, seq, payload) :: t.log;
  let rec drain () =
    match Hashtbl.find_opt flow.ooo flow.expected with
    | None -> ()
    | Some p ->
      Hashtbl.remove flow.ooo flow.expected;
      let s = flow.expected in
      flow.expected <- s + 1;
      Queue.add (s, p) flow.app;
      t.log <- (flow.dir, s, p) :: t.log;
      drain ()
  in
  drain ()

let on_data t flow seq payload =
  if seq < flow.expected then begin
    (* Already delivered: a duplicated copy or a retransmission whose ACK was
       lost. Re-ack so the sender can stop. *)
    t.duplicates_suppressed <- t.duplicates_suppressed + 1;
    Metrics.incr m_duplicates;
    send_ack t flow
  end
  else if seq = flow.expected then begin
    deliver_in_order t flow seq payload;
    send_ack t flow
  end
  else begin
    if Hashtbl.mem flow.ooo seq then begin
      t.duplicates_suppressed <- t.duplicates_suppressed + 1;
      Metrics.incr m_duplicates
    end
    else Hashtbl.replace flow.ooo seq payload;
    send_ack t flow
  end

(* Cumulative: ACK [n] acknowledges every sequence number below [n]. *)
let on_ack t flow ack =
  Hashtbl.iter
    (fun seq (p : pending) ->
      if seq < ack then Option.iter (Clock.cancel t.clk) p.timer)
    flow.unacked;
  Hashtbl.filter_map_inplace
    (fun seq p -> if seq < ack then None else Some p)
    flow.unacked

let on_packet t direction bytes =
  match decode_packet bytes with
  | None ->
    t.corrupt_discarded <- t.corrupt_discarded + 1;
    Metrics.incr m_corrupt
  | Some (kind, seq, payload) ->
    if kind = data_kind then on_data t (flow_of t direction) seq payload
    else
      (* An ACK travelling in [direction] acknowledges the flow sending the
         other way. *)
      on_ack t (flow_of t (opposite direction)) seq

let create ?(config = default_config) ~clock ~network ~seed () =
  let t =
    { cfg = config; clk = clock; net = network; seed; ab = mk_flow Comm.A_to_b 0;
      ba = mk_flow Comm.B_to_a 1; hard_deadline = None; data_sent = 0; retransmissions = 0;
      acks_sent = 0; duplicates_suppressed = 0; corrupt_discarded = 0; stale_deliveries = 0;
      timeouts = 0; wire_bytes = 0; log = [] }
  in
  Network.on_deliver network (on_packet t);
  t

let clock t = t.clk
let network t = t.net

let stats t =
  { data_sent = t.data_sent; retransmissions = t.retransmissions; acks_sent = t.acks_sent;
    duplicates_suppressed = t.duplicates_suppressed; corrupt_discarded = t.corrupt_discarded;
    stale_deliveries = t.stale_deliveries; timeouts = t.timeouts; wire_bytes = t.wire_bytes }

let set_hard_deadline t d = t.hard_deadline <- d

let delivered_log t = List.rev t.log

let transmit t direction ~label payload =
  let flow = flow_of t direction in
  let seq = flow.next_seq in
  flow.next_seq <- seq + 1;
  let p = { seq; wire = encode_packet ~kind:data_kind ~seq payload; label; sends = 1; timer = None } in
  Hashtbl.replace flow.unacked seq p;
  t.data_sent <- t.data_sent + 1;
  Metrics.incr m_data_sent;
  put_on_wire t direction ~label p.wire;
  arm_timer t flow p;
  let deadline =
    let d = Clock.now_us t.clk + t.cfg.msg_deadline_us in
    match t.hard_deadline with None -> d | Some h -> min d h
  in
  Clock.run_until t.clk ~deadline_us:deadline ~stop:(fun () -> flow.expected > seq);
  if flow.expected > seq then begin
    (* Our payload is in the receiver's pickup queue, possibly behind
       payloads whose transmits timed out earlier; those were already
       reported lost to their callers, so they are drained as stale. *)
    let rec pick () =
      match Queue.take_opt flow.app with
      | None -> None
      | Some (s, bytes) ->
        if s = seq then Some bytes
        else begin
          t.stale_deliveries <- t.stale_deliveries + 1;
          Metrics.incr m_stale;
          pick ()
        end
    in
    pick ()
  end
  else begin
    t.timeouts <- t.timeouts + 1;
    Metrics.incr m_timeouts;
    None
  end

let transport t : Comm.transport =
  {
    overhead_bits = 8 * (Frame.overhead_bytes + header_bytes);
    transmit = (fun direction ~label payload -> transmit t direction ~label payload);
  }
