module Clock = Ssr_transport.Clock
module Metrics = Ssr_obs.Metrics
module Trace = Ssr_obs.Trace

type config = {
  seed : int64;
  shards : int;
  rung_caps : int array;
  check_bits : int;
  max_sessions_per_shard : int;
  admissions_per_round : int;
  retry_after_us : int;
  session_idle_timeout_us : int;
  refresh_every : int;
  tainted_max : int;
}

let default_config ~seed ?(shards = 8) () =
  {
    seed;
    shards;
    rung_caps = Shard.default_rung_caps;
    check_bits = 32;
    max_sessions_per_shard = 256;
    admissions_per_round = 64;
    retry_after_us = 50_000;
    session_idle_timeout_us = 10_000_000;
    refresh_every = 4096;
    tainted_max = 64;
  }

let m_pump_rounds = Metrics.counter "server.pump.rounds"
let m_wire_rejected = Metrics.counter "server.wire.rejected"
let m_opened = Metrics.counter "server.sessions.opened"
let m_completed = Metrics.counter "server.sessions.completed"
let m_rejected = Metrics.counter "server.sessions.rejected"
let m_expired = Metrics.counter "server.sessions.expired"
let m_failed = Metrics.counter "server.sessions.failed"
let m_escalations = Metrics.counter "server.sessions.escalations"
let m_cells_sent = Metrics.counter "rateless.cells_sent"
let m_mutations = Metrics.counter "server.mutations.applied"
let g_active = Metrics.gauge "server.sessions.active"

type conn = { cid : int; reply : Bytes.t -> unit }

type session = {
  conn : conn;
  snap : Shard.snapshot;
  mutable sent : int;  (* end of the last window served *)
  mutable last_reply : Bytes.t;
  mutable last_active_us : int;
}

(* One shard's state: the pump hands it only that shard's packets, in
   arrival order, once per round. *)
type shard_state = {
  sh : Shard.t;
  sessions : (int, session) Hashtbl.t;
  mutable st_opened : int;
  mutable st_completed : int;
  mutable st_rejected : int;
  mutable st_expired : int;
  mutable st_failed : int;
  mutable st_escalations : int;
}

type t = {
  cfg : config;
  cells : int;  (* N, the cells of every shard's prefix *)
  clock : Clock.t;
  state : shard_state array;
  inbox : (conn * Bytes.t) Queue.t;
  mutable pump_scheduled : bool;
  mutable next_cid : int;
}

type stats = {
  opened : int;
  completed : int;
  rejected : int;
  expired : int;
  failed : int;
  escalations : int;
}

let session_key conn sid = (conn.cid lsl 32) lor (sid land 0xFFFFFFFF)

let sweep t () =
  let now = Clock.now_us t.clock in
  Array.iter
    (fun ss ->
      let stale =
        Hashtbl.fold
          (fun k s acc -> if now - s.last_active_us >= t.cfg.session_idle_timeout_us then k :: acc else acc)
          ss.sessions []
      in
      List.iter
        (fun k ->
          Hashtbl.remove ss.sessions k;
          ss.st_expired <- ss.st_expired + 1;
          Metrics.incr m_expired)
        (List.sort compare stale))
    t.state

let rec schedule_sweep t =
  ignore
    (Clock.schedule t.clock
       ~at_us:(Clock.now_us t.clock + t.cfg.session_idle_timeout_us)
       (fun () ->
         sweep t ();
         schedule_sweep t))

let create ~clock cfg =
  if cfg.shards < 1 || cfg.shards > 0xFFFF then invalid_arg "Server.create: bad shard count";
  if cfg.max_sessions_per_shard < 1 || cfg.admissions_per_round < 1 then
    invalid_arg "Server.create: bad session bounds";
  let t =
    {
      cfg;
      cells = Shard.prefix_cells ~rung_caps:cfg.rung_caps ~check_bits:cfg.check_bits;
      clock;
      state =
        Array.init cfg.shards (fun id ->
            {
              sh =
                Shard.create ~server_seed:cfg.seed ~id ~rung_caps:cfg.rung_caps
                  ~check_bits:cfg.check_bits ~refresh_every:cfg.refresh_every
                  ~tainted_max:cfg.tainted_max ();
              sessions = Hashtbl.create 64;
              st_opened = 0;
              st_completed = 0;
              st_rejected = 0;
              st_expired = 0;
              st_failed = 0;
              st_escalations = 0;
            });
      inbox = Queue.create ();
      pump_scheduled = false;
      next_cid = 0;
    }
  in
  schedule_sweep t;
  t

let config t = t.cfg

let connect t ~reply =
  let cid = t.next_cid in
  t.next_cid <- cid + 1;
  { cid; reply }

let conn_id c = c.cid

let shard t i =
  if i < 0 || i >= t.cfg.shards then invalid_arg "Server.shard: out of range";
  t.state.(i).sh

let active_sessions t =
  Array.fold_left (fun acc ss -> acc + Hashtbl.length ss.sessions) 0 t.state

let stats t =
  Array.fold_left
    (fun acc ss ->
      {
        opened = acc.opened + ss.st_opened;
        completed = acc.completed + ss.st_completed;
        rejected = acc.rejected + ss.st_rejected;
        expired = acc.expired + ss.st_expired;
        failed = acc.failed + ss.st_failed;
        escalations = acc.escalations + ss.st_escalations;
      })
    { opened = 0; completed = 0; rejected = 0; expired = 0; failed = 0; escalations = 0 }
    t.state

(* Serve the pinned cells [s.sent, hi) and cache the reply for replays. *)
let serve_window ~shard_id ~session s ~hi =
  let lo = s.sent in
  Metrics.add m_cells_sent (hi - lo);
  let reply =
    Wire.encode
      {
        shard = shard_id;
        session;
        msg =
          Wire.Sketch
            {
              version = Shard.snap_version s.snap;
              n = Shard.snap_cardinality s.snap;
              xor_hash = Shard.snap_xor_hash s.snap;
              lo;
              body = Shard.snap_window s.snap ~lo ~hi;
            };
      }
  in
  s.sent <- hi;
  s.last_reply <- reply;
  reply

(* One shard's packets for this round, in arrival order. Runs on a pump
   worker; touches only [ss] and returns the replies to emit. *)
let process_shard t ~now ss msgs =
  let shard_id = Shard.id ss.sh in
  let replies = ref [] in
  let push c b = replies := (c, b) :: !replies in
  let reply_fin c ~session ok = push c (Wire.encode { shard = shard_id; session; msg = Wire.Fin { ok } }) in
  let admitted = ref 0 in
  List.iter
    (fun (c, (p : Wire.packet)) ->
      match p.msg with
      | Wire.Req { l0 } -> (
        let key = session_key c p.session in
        match Hashtbl.find_opt ss.sessions key with
        | Some s ->
          (* Retransmitted request: idempotent replay of the last reply. *)
          s.last_active_us <- now;
          push c s.last_reply
        | None ->
          if
            Hashtbl.length ss.sessions >= t.cfg.max_sessions_per_shard
            || !admitted >= t.cfg.admissions_per_round
          then begin
            ss.st_rejected <- ss.st_rejected + 1;
            Metrics.incr m_rejected;
            push c
              (Wire.encode
                 {
                   shard = shard_id;
                   session = p.session;
                   msg = Wire.Reject { retry_after_us = t.cfg.retry_after_us };
                 })
          end
          else begin
            match Shard.l0_of_client_bytes_opt ss.sh l0 with
            | None ->
              Metrics.incr m_wire_rejected;
              reply_fin c ~session:p.session false
            | Some client_l0 ->
              incr admitted;
              let est = Shard.estimate_diff ss.sh ~client_l0 in
              let s =
                {
                  conn = c;
                  snap = Shard.snapshot ss.sh;
                  sent = 0;
                  last_reply = Bytes.empty;
                  last_active_us = now;
                }
              in
              (* Twice the estimate, as Resilient's rateless rung opens. *)
              let reply =
                serve_window ~shard_id ~session:p.session s ~hi:(min t.cells (max 32 (2 * est)))
              in
              Hashtbl.replace ss.sessions key s;
              ss.st_opened <- ss.st_opened + 1;
              Metrics.incr m_opened;
              push c reply
          end)
      | Wire.More { have } -> (
        let key = session_key c p.session in
        match Hashtbl.find_opt ss.sessions key with
        | None -> reply_fin c ~session:p.session false
        | Some s ->
          s.last_active_us <- now;
          if have < s.sent then
            (* Retransmitted request (or a stale one): replay. *)
            push c s.last_reply
          else if have = s.sent && have < t.cells then begin
            ss.st_escalations <- ss.st_escalations + 1;
            Metrics.incr m_escalations;
            push c (serve_window ~shard_id ~session:p.session s ~hi:(min t.cells (2 * have)))
          end
          else begin
            (* Past the prefix, or past what was served: the session
               cannot make progress against this snapshot. *)
            Hashtbl.remove ss.sessions key;
            ss.st_failed <- ss.st_failed + 1;
            Metrics.incr m_failed;
            reply_fin c ~session:p.session false
          end)
      | Wire.Done { ok } -> (
        let key = session_key c p.session in
        match Hashtbl.find_opt ss.sessions key with
        | None -> reply_fin c ~session:p.session false
        | Some _ ->
          Hashtbl.remove ss.sessions key;
          if ok then begin
            ss.st_completed <- ss.st_completed + 1;
            Metrics.incr m_completed
          end
          else begin
            ss.st_failed <- ss.st_failed + 1;
            Metrics.incr m_failed
          end;
          reply_fin c ~session:p.session ok)
      | Wire.Mutate { add; key } ->
        let changed = Shard.apply ss.sh (if add then Shard.Add key else Shard.Remove key) in
        if changed then Metrics.incr m_mutations;
        push c
          (Wire.encode
             {
               shard = shard_id;
               session = p.session;
               msg = Wire.Mut_ack { version = Shard.version ss.sh };
             })
      | Wire.Reject _ | Wire.Sketch _ | Wire.Fin _ | Wire.Mut_ack _ ->
        (* Server-to-client messages arriving at the server: hostile or
           reflected traffic. *)
        Metrics.incr m_wire_rejected)
    msgs;
  List.rev !replies

let pump t () =
  t.pump_scheduled <- false;
  Metrics.incr m_pump_rounds;
  let now = Clock.now_us t.clock in
  let n_msgs = Queue.length t.inbox in
  let groups = Array.make t.cfg.shards [] in
  for _ = 1 to n_msgs do
    let c, b = Queue.pop t.inbox in
    match Wire.decode_opt b with
    | Some p when p.Wire.shard < t.cfg.shards -> groups.(p.Wire.shard) <- (c, p) :: groups.(p.Wire.shard)
    | Some _ | None -> Metrics.incr m_wire_rejected
  done;
  let touched = ref [] in
  for sid = t.cfg.shards - 1 downto 0 do
    if groups.(sid) <> [] then touched := sid :: !touched
  done;
  let touched = Array.of_list !touched in
  let replies =
    Array.map (fun sid -> process_shard t ~now t.state.(sid) (List.rev groups.(sid))) touched
  in
  Array.iter (fun rs -> List.iter (fun ((c : conn), b) -> c.reply b) rs) replies;
  Metrics.set g_active (active_sessions t);
  Trace.emit ~layer:"server" "pump" ~fields:[ ("msgs", Trace.I n_msgs) ]

let receive t conn bytes =
  Queue.push (conn, bytes) t.inbox;
  if not t.pump_scheduled then begin
    t.pump_scheduled <- true;
    ignore (Clock.schedule t.clock ~at_us:(Clock.now_us t.clock) (pump t))
  end

let apply t ~shard m =
  if shard < 0 || shard >= t.cfg.shards then invalid_arg "Server.apply: shard out of range";
  let changed = Shard.apply t.state.(shard).sh m in
  if changed then Metrics.incr m_mutations;
  changed

let apply_batch t muts =
  let groups = Array.make t.cfg.shards [] in
  Array.iter
    (fun (sid, m) ->
      if sid < 0 || sid >= t.cfg.shards then invalid_arg "Server.apply_batch: shard out of range";
      groups.(sid) <- m :: groups.(sid))
    muts;
  let touched = ref [] in
  for sid = t.cfg.shards - 1 downto 0 do
    if groups.(sid) <> [] then touched := sid :: !touched
  done;
  let counts =
    Array.map
      (fun sid ->
        List.fold_left
          (fun acc m ->
            if Shard.apply t.state.(sid).sh m then begin
              Metrics.incr m_mutations;
              acc + 1
            end
            else acc)
          0
          (List.rev groups.(sid)))
      (Array.of_list !touched)
  in
  Array.fold_left ( + ) 0 counts
