module Rateless = Ssr_sketch.Rateless
module L0 = Ssr_sketch.L0_estimator
module Hashing = Ssr_util.Hashing
module Clock = Ssr_transport.Clock

module Base = struct
  type t = {
    server_seed : int64;
    shard : int;
    seed : int64;  (* the prefix's stream seed *)
    cells : int;  (* N *)
    prefix : Bytes.t;  (* cells [0, N) of the members' stream *)
    l0 : L0.t;
    fn : Hashing.fn;
    xor : int;
    n : int;
  }

  let create ~server_seed ~shard ~rung_caps ~check_bits ~members =
    let cells = Shard.prefix_cells ~rung_caps ~check_bits in
    let seed = Shard.prefix_seed ~server_seed ~shard in
    let prefix = Rateless.cells (Rateless.source_of_ints ~seed members) ~lo:0 ~hi:cells in
    let l0 = L0.create ~seed:(Shard.l0_seed ~server_seed ~shard) () in
    L0.update_all l0 L0.S2 members;
    let fn = Shard.hash_fn ~server_seed ~shard in
    let xor = Array.fold_left (fun acc x -> acc lxor Hashing.hash_int fn x) 0 members in
    { server_seed; shard; seed; cells; prefix; l0; fn; xor; n = Array.length members }
end

type outcome =
  | Pending
  | Succeeded of { latency_us : int; diff : int; rejects : int; escalations : int }
  | Failed of string

type state = Idle | Awaiting_sketch | Awaiting_fin | Terminal

type t = {
  clock : Clock.t;
  send : Bytes.t -> unit;
  base : Base.t;
  session : int;
  added : int array;
  removed : int array;
  l0_bytes : Bytes.t;
  my_xor : int;
  my_n : int;
  writer : Rateless.writer;
  (* The difference absorbed so far; its [next_index] is where the next
     window must start. *)
  dec : Rateless.decoder;
  mutable state : state;
  mutable outstanding : Bytes.t option;
  mutable timer_gen : int;
  mutable first_send_us : int;
  mutable rejects : int;
  mutable escalations : int;
  mutable retries : int;
  mutable done_ok : bool;
  mutable fail_reason : string;
  mutable outcome : outcome;
  mutable diff : (int list * int list) option;
  mutable mut_ack : int option;
  (* The epoch the server pinned for this session, from the first window. *)
  mutable epoch_version : int;
  mutable epoch_xor : int;
  mutable epoch_n : int;
}

let xor_fold fn acc xs = List.fold_left (fun a x -> a lxor Hashing.hash_int fn x) acc xs

(* A [Req] unanswered for 500 ms is sent again, at most 10 times. *)
let req_timeout_us = 500_000
let max_retries = 10

let create ~clock ~send ~base ~session ~added ~removed () =
  let l0 = L0.merge base.Base.l0 (L0.create ~seed:(Shard.l0_seed ~server_seed:base.Base.server_seed ~shard:base.Base.shard) ()) in
  Array.iter (fun x -> L0.update l0 L0.S2 x) added;
  (* An [S1] tick is the mod-4 inverse of the base's [S2] tick, so a
     removal cancels exactly once. *)
  Array.iter (fun x -> L0.update l0 L0.S1 x) removed;
  let fn = base.Base.fn in
  let delta_xor acc xs = Array.fold_left (fun a x -> a lxor Hashing.hash_int fn x) acc xs in
  {
    clock;
    send;
    base;
    session;
    added;
    removed;
    l0_bytes = L0.to_bytes l0;
    my_xor = delta_xor (delta_xor base.Base.xor added) removed;
    my_n = base.Base.n + Array.length added - Array.length removed;
    writer = Rateless.writer ~seed:base.Base.seed;
    dec = Rateless.decoder_of_ints ~seed:base.Base.seed [||];
    state = Idle;
    outstanding = None;
    timer_gen = 0;
    first_send_us = -1;
    rejects = 0;
    escalations = 0;
    retries = 0;
    done_ok = false;
    fail_reason = "";
    outcome = Pending;
    diff = None;
    mut_ack = None;
    epoch_version = -1;
    epoch_xor = 0;
    epoch_n = -1;
  }

let outcome t = t.outcome
let recovered_diff t = t.diff
let last_mut_ack t = t.mut_ack

let invalidate_timer t = t.timer_gen <- t.timer_gen + 1

let fail t reason =
  invalidate_timer t;
  t.outstanding <- None;
  t.state <- Terminal;
  t.outcome <- Failed reason

(* Retransmit loop: any in-flight protocol message is resent until its
   reply arrives or the retry budget runs out. Server handling is
   idempotent, so late copies of a superseded message are harmless. *)
let rec arm_timer t =
  invalidate_timer t;
  let gen = t.timer_gen in
  ignore
    (Clock.schedule t.clock
       ~at_us:(Clock.now_us t.clock + req_timeout_us)
       (fun () ->
         if t.timer_gen = gen && t.state <> Terminal then
           match t.outstanding with
           | None -> ()
           | Some b ->
             if t.retries >= max_retries then fail t "timeout"
             else begin
               t.retries <- t.retries + 1;
               t.send b;
               arm_timer t
             end))

let send_proto t bytes =
  t.outstanding <- Some bytes;
  t.send bytes;
  arm_timer t

let packet t msg = Wire.encode { shard = t.base.Base.shard; session = t.session; msg }

let send_req t =
  if t.first_send_us < 0 then t.first_send_us <- Clock.now_us t.clock;
  t.state <- Awaiting_sketch;
  send_proto t (packet t (Wire.Req { l0 = t.l0_bytes }))

let start t = if t.state = Idle && t.outcome = Pending then send_req t

let mutate t ~add ~key = t.send (packet t (Wire.Mutate { add; key }))

let send_done t ok =
  t.done_ok <- ok;
  if not ok then t.fail_reason <- "stream exhausted";
  t.state <- Awaiting_fin;
  send_proto t (packet t (Wire.Done { ok }))

let verified t ~client_only ~server_only =
  let fn = t.base.Base.fn in
  xor_fold fn (xor_fold fn t.my_xor client_only) server_only = t.epoch_xor
  && t.my_n - List.length client_only + List.length server_only = t.epoch_n

(* One window of the pinned prefix: subtract this client's own cells
   (its base window, then its added and removed keys), absorb what is
   left, and accept only a decode that reproduces the snapshot's XOR hash
   and cardinality. *)
let handle_window t ~version ~n ~xor_hash ~lo ~cells =
  let base = t.base in
  let have = Rateless.next_index t.dec in
  let hi = lo + (Bytes.length cells / Rateless.cell_bytes) in
  if lo <> have || hi <= lo || hi > base.Base.cells then () (* duplicate or nonsense: drop *)
  else if have > 0 && (version <> t.epoch_version || xor_hash <> t.epoch_xor || n <> t.epoch_n)
  then fail t "epoch changed mid-session"
  else begin
    if have = 0 then begin
      t.epoch_version <- version;
      t.epoch_xor <- xor_hash;
      t.epoch_n <- n
    end;
    invalidate_timer t;
    t.outstanding <- None;
    Rateless.subtract cells base.Base.prefix ~off:(lo * Rateless.cell_bytes);
    Array.iter (fun x -> Rateless.write_int t.writer ~sign:(-1) x ~lo ~hi cells) t.added;
    Array.iter (fun x -> Rateless.write_int t.writer ~sign:1 x ~lo ~hi cells) t.removed;
    ignore (Rateless.absorb t.dec ~lo cells);
    match Rateless.decoded_ints t.dec with
    | Some (server_only, client_only) when verified t ~client_only ~server_only ->
      t.diff <- Some (List.sort compare client_only, List.sort compare server_only);
      send_done t true
    | Some _ | None ->
      (* Stuck, or a candidate the hashes refuse (a false-pure peel): more
         cells decide, up to the end of the prefix. *)
      if hi >= base.Base.cells then send_done t false
      else begin
        t.escalations <- t.escalations + 1;
        send_proto t (packet t (Wire.More { have = hi }))
      end
  end

let on_receive t bytes =
  match Wire.decode_opt bytes with
  | None -> ()
  | Some p ->
    if p.Wire.shard <> t.base.Base.shard || p.Wire.session <> t.session then ()
    else begin
      match (p.Wire.msg, t.state) with
      | Wire.Mut_ack { version }, _ -> t.mut_ack <- Some version
      | Wire.Reject { retry_after_us }, Awaiting_sketch ->
        t.rejects <- t.rejects + 1;
        invalidate_timer t;
        t.outstanding <- None;
        t.state <- Idle;
        ignore
          (Clock.schedule t.clock
             ~at_us:(Clock.now_us t.clock + retry_after_us)
             (fun () -> if t.state = Idle && t.outcome = Pending then send_req t))
      | Wire.Sketch { version; n; xor_hash; lo; body }, Awaiting_sketch ->
        handle_window t ~version ~n ~xor_hash ~lo ~cells:body
      | Wire.Fin _, Awaiting_fin ->
        (* Correctness was decided locally (XOR + cardinality check);
           Fin only closes the session. A Fin{ok=false} for a
           retransmitted Done after the server already dropped the
           session must not turn a verified success into a failure. *)
        invalidate_timer t;
        t.outstanding <- None;
        t.state <- Terminal;
        if t.done_ok then
          t.outcome <-
            Succeeded
              {
                latency_us = Clock.now_us t.clock - t.first_send_us;
                diff =
                  (match t.diff with
                  | Some (a, b) -> List.length a + List.length b
                  | None -> 0);
                rejects = t.rejects;
                escalations = t.escalations;
              }
        else t.outcome <- Failed (if t.fail_reason = "" then "gave up" else t.fail_reason)
      | Wire.Fin { ok = false }, Awaiting_sketch -> fail t "server closed session"
      | (Wire.Req _ | Wire.More _ | Wire.Done _ | Wire.Mutate _), _
      | Wire.Reject _, _
      | Wire.Sketch _, _
      | Wire.Fin _, _ ->
        (* Stale, duplicated or client-to-server traffic: drop. *)
        ()
    end
