module Iset = Ssr_util.Iset
module Prng = Ssr_util.Prng
module Hashing = Ssr_util.Hashing
module Buf = Ssr_util.Buf
module Codec = Ssr_util.Codec
module Comm = Ssr_setrecon.Comm
module Set_recon = Ssr_setrecon.Set_recon
module Rateless_recon = Ssr_setrecon.Rateless_recon
module Protocol = Ssr_core.Protocol
module Parent = Ssr_core.Parent
module Enc_cache = Ssr_core.Enc_cache
module Metrics = Ssr_obs.Metrics
module Trace = Ssr_obs.Trace

let m_attempts = Metrics.counter "resilient.attempts"
let m_retries = Metrics.counter "resilient.retries"
let m_direct_fallbacks = Metrics.counter "resilient.direct_fallbacks"

type link =
  | Faulty_channel of { channel : Channel.t; framed : bool }
  | Simulated of Arq.t

let over_channel ?(framed = true) channel = Faulty_channel { channel; framed }
let over_network arq = Simulated arq

type attempt = {
  number : int;
  d : int;
  direct : bool;
  ok : bool;
  elapsed_us : int;
}

type timing = {
  elapsed_us : int;
  retransmissions : int;
  arq_timeouts : int;
  duplicates_suppressed : int;
  partition_drops : int;
  reordered : int;
  backoff_us : int;
  wire_bytes : int;
}

type report = {
  attempts : attempt list;
  degraded : bool;
  faults : Channel.event list;
  stats : Comm.stats;
  wire_bytes : int;
  timing : timing option;
}

type error = [ `Transport_failure of report | `Deadline_exceeded of report ]

type strategy = Doubling | Rateless

(* ---- Link-generic driver scaffolding. ---- *)

type ctx = {
  comm : Comm.t;
  link : link;
  seed : int64;
  t0 : int;  (** Virtual start time (0 on a plain channel link). *)
  run_deadline : int option;  (** Absolute virtual time. *)
  attempt_deadline_us : int option;  (** Budget per attempt. *)
  base_faults : int;  (** Fault-log length at start, for delta reporting. *)
  base_arq : Arq.stats option;
  base_channel_bytes : int;
  base_partition_drops : int;
  base_reordered : int;
  mutable backoff_total : int;
}

let now ctx = match ctx.link with Simulated arq -> Clock.now_us (Arq.clock arq) | _ -> 0

let attach comm link =
  Comm.set_transport comm
    (match link with
    | Faulty_channel { channel; framed } ->
      if framed then Channel.transport channel else Channel.raw_transport channel
    | Simulated arq -> Arq.transport arq)

let mk_ctx ~link ~seed ?attempt_deadline_us ?run_deadline_us () =
  let comm = Comm.create () in
  attach comm link;
  let t0 = match link with Simulated arq -> Clock.now_us (Arq.clock arq) | _ -> 0 in
  let base_faults, base_arq, base_cb, base_pd, base_ro =
    match link with
    | Faulty_channel { channel; _ } ->
      (List.length (Channel.events channel), None, Channel.bytes_sent channel, 0, 0)
    | Simulated arq ->
      let net = Arq.network arq in
      ( List.length (Network.faults net),
        Some (Arq.stats arq),
        0,
        Network.partition_drops net,
        Network.reorder_count net )
  in
  {
    comm; link; seed; t0;
    run_deadline = Option.map (fun d -> t0 + d) run_deadline_us;
    attempt_deadline_us;
    base_faults; base_arq; base_channel_bytes = base_cb;
    base_partition_drops = base_pd; base_reordered = base_ro;
    backoff_total = 0;
  }

let run_deadline_exceeded ctx =
  match ctx.run_deadline with None -> false | Some rd -> now ctx >= rd

(* Cap each transmit of the coming attempt at both the per-attempt budget
   and the whole-run deadline. *)
let begin_attempt ctx =
  match ctx.link with
  | Faulty_channel _ -> ()
  | Simulated arq ->
    let candidates =
      (match ctx.attempt_deadline_us with
      | Some a -> [ Clock.now_us (Arq.clock arq) + a ]
      | None -> [])
      @ (match ctx.run_deadline with Some rd -> [ rd ] | None -> [])
    in
    Arq.set_hard_deadline arq
      (match candidates with [] -> None | l -> Some (List.fold_left min max_int l))

(* Transmits that have hit a deadline so far: the ARQ gave up on a message
   (a drop or damage it could not repair in time, a partition, an attempt
   or run deadline). A channel link has no ARQ and never backs off. *)
let timeouts ctx =
  match ctx.link with Faulty_channel _ -> 0 | Simulated arq -> (Arq.stats arq).Arq.timeouts

(* Base of the inter-attempt backoff: 50 ms of virtual time. *)
let backoff_base_us = 50_000

(* Capped-doubling backoff with deterministic jitter, taken only when the
   failed attempt or Bob's retry request after it lost a message ([timeouts]
   moved since [timeouts_before]): virtual time passes (in-flight stragglers
   keep moving), so the next attempt does not re-enter the tail of the
   fault burst that killed this one. A clean decode failure means the table
   was too small, not that the link is bad, so the next attempt starts at
   once, as the paper's retry does (Cor 3.6 / 3.8). *)
let backoff_between ctx ~number ~timeouts_before =
  match ctx.link with
  | Simulated arq when timeouts ctx > timeouts_before ->
    let base = backoff_base_us * (1 lsl min number 3) in
    let jitter =
      Prng.int_below
        (Prng.create ~seed:(Prng.derive ~seed:ctx.seed ~tag:(0xB0FF + number)))
        ((backoff_base_us / 2) + 1)
    in
    let dur = base + jitter in
    (* Never sleep past the whole-run deadline. *)
    let dur =
      match ctx.run_deadline with
      | None -> dur
      | Some rd -> max 0 (min dur (rd - Clock.now_us (Arq.clock arq)))
    in
    if dur > 0 then begin
      ctx.backoff_total <- ctx.backoff_total + dur;
      Clock.advance (Arq.clock arq) ~by_us:dur
    end
  | Simulated _ | Faulty_channel _ -> ()

let drop_prefix n l = List.filteri (fun i _ -> i >= n) l

let mk_report ctx ~attempts ~degraded =
  let faults, wire_bytes, timing =
    match ctx.link with
    | Faulty_channel { channel; _ } ->
      ( Channel.events channel,
        Channel.bytes_sent channel - ctx.base_channel_bytes,
        None )
    | Simulated arq ->
      let net = Arq.network arq in
      let s = Arq.stats arq in
      let b = Option.get ctx.base_arq in
      ( drop_prefix ctx.base_faults (Network.faults net),
        s.Arq.wire_bytes - b.Arq.wire_bytes,
        Some
          {
            elapsed_us = Clock.now_us (Arq.clock arq) - ctx.t0;
            retransmissions = s.Arq.retransmissions - b.Arq.retransmissions;
            arq_timeouts = s.Arq.timeouts - b.Arq.timeouts;
            duplicates_suppressed = s.Arq.duplicates_suppressed - b.Arq.duplicates_suppressed;
            partition_drops = Network.partition_drops net - ctx.base_partition_drops;
            reordered = Network.reorder_count net - ctx.base_reordered;
            backoff_us = ctx.backoff_total;
            wire_bytes = s.Arq.wire_bytes - b.Arq.wire_bytes;
          } )
  in
  { attempts = List.rev attempts; degraded; faults; stats = Comm.stats ctx.comm; wire_bytes;
    timing }

(* The shared self-healing loop, an escalation ladder with two rungs:
   bounded reconciliation attempts, each under a fresh attempt salt with a
   doubling difference bound, then bounded verified direct transfers; on a
   network link both rungs respect the virtual-time deadlines and back off
   after an attempt that lost a message. [recon ~number ~d] and
   [direct ()] return the verified result or [None] on any detected
   failure. After a failure Bob's 1-byte retry request crosses the link;
   Alice goes on either way, on her own timeout when it is lost. *)
let drive ctx ~max_attempts ~initial_d ~recon ~direct =
  (* One attempt of either rung; [next] continues the ladder after a
     failure. The attempt's time is booked when its run returns, before the
     retry request and any backoff. *)
  let step ~number ~d ~acc ~direct ~degraded ~fields event run ~next =
    begin_attempt ctx;
    Metrics.incr m_attempts;
    Trace.emit ~layer:"resilient" ~fields:(("number", Trace.I number) :: fields) event;
    let ta = now ctx and timeouts_before = timeouts ctx in
    let v = run () in
    let elapsed_us = now ctx - ta in
    let attempt ok = { number; d; direct; ok; elapsed_us } in
    match v with
    | Some v -> Ok (v, mk_report ctx ~attempts:(attempt true :: acc) ~degraded)
    | None ->
      Metrics.incr m_retries;
      Comm.request_retry ctx.comm;
      backoff_between ctx ~number ~timeouts_before;
      next (attempt false :: acc)
  in
  let rec direct_loop number tries acc =
    if run_deadline_exceeded ctx then
      Error (`Deadline_exceeded (mk_report ctx ~attempts:acc ~degraded:true))
    else if tries >= max_attempts then
      Error (`Transport_failure (mk_report ctx ~attempts:acc ~degraded:true))
    else
      step ~number ~d:0 ~acc ~direct:true ~degraded:true ~fields:[] "direct-attempt" direct
        ~next:(direct_loop (number + 1) (tries + 1))
  in
  let rec attempt number d acc =
    if run_deadline_exceeded ctx then
      Error (`Deadline_exceeded (mk_report ctx ~attempts:acc ~degraded:false))
    else if number >= max_attempts then begin
      Metrics.incr m_direct_fallbacks;
      Trace.emit ~layer:"resilient" "direct-fallback";
      direct_loop number 0 acc
    end
    else
      step ~number ~d ~acc ~direct:false ~degraded:false ~fields:[ ("d", Trace.I d) ]
        "recon-attempt"
        (fun () -> recon ~number ~d)
        ~next:(attempt (number + 1) (2 * d))
  in
  attempt 0 (max 1 initial_d) []

let int62_bytes v =
  let b = Bytes.create 8 in
  Buf.set_int_le b 0 v;
  b

(* ---- Plain sets. ---- *)

let parse_direct_set ~seed delivered =
  let r = Codec.reader delivered in
  match Iset.read_canonical r ((Bytes.length delivered / 8) - 1) with
  | None -> None
  | Some s -> (
    match Codec.int62 r with
    | Some h when Codec.at_end r && Set_recon.set_hash ~seed s = h -> Some s
    | _ -> None)

let reconcile_set ~link ~seed ?(strategy = Doubling) ?(initial_d = 4) ?(max_attempts = 5)
    ?attempt_deadline_us ?run_deadline_us ~alice ~bob () =
  let ctx = mk_ctx ~link ~seed ?attempt_deadline_us ?run_deadline_us () in
  let direct_payload =
    lazy (Bytes.cat (Iset.canonical_bytes alice) (int62_bytes (Set_recon.set_hash ~seed alice)))
  in
  drive ctx ~max_attempts ~initial_d
    ~recon:(fun ~number ~d ->
      let seed = Hashing.attempt_seed ~seed ~attempt:number in
      let result =
        match strategy with
        | Doubling -> Set_recon.run_known_d ~comm:ctx.comm ~seed ~d ~alice ~bob
        | Rateless ->
          (* One rateless run is itself an open-ended escalation — the
             stream keeps flowing until the peel verifies — so a failed run
             means the transport is badly broken, and the ladder's next
             attempt (fresh attempt seed, fresh stream) or direct transfer
             takes over. [d] doubles per attempt as under [Doubling]; here
             it scales the initial window instead of a table size. *)
          Rateless_recon.run ~comm:ctx.comm ~seed ~initial_window:(max 32 (2 * d)) ~alice ~bob ()
      in
      match result with
      | Ok o -> Some o.Set_recon.recovered
      | Error `Decode_failure -> None)
    ~direct:(fun () ->
      match Comm.xfer ctx.comm Comm.A_to_b ~label:"direct-transfer" (Lazy.force direct_payload) with
      | Error `Lost -> None
      | Ok bytes -> parse_direct_set ~seed bytes)

(* ---- Sets of sets. ---- *)

let sos_direct_payload ~seed alice =
  let children = Parent.children alice in
  let buf = Buffer.create 256 in
  let add_u32 v =
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 (Int32.of_int v);
    Buffer.add_bytes buf b
  in
  add_u32 (List.length children);
  List.iter
    (fun c ->
      let b = Iset.canonical_bytes c in
      add_u32 (Bytes.length b);
      Buffer.add_bytes buf b)
    children;
  Buffer.add_bytes buf (int62_bytes (Parent.hash ~seed alice));
  Buffer.to_bytes buf

let parse_direct_sos ~seed delivered =
  let r = Codec.reader delivered in
  match Codec.u32 r with
  | None -> None
  (* The child count is untrusted: each child costs at least its 4-byte
     length field and the trailing hash costs 8, so a count the remaining
     bytes cannot possibly hold is rejected up front — before the parse loop
     builds anything sized from it. *)
  | Some count when count > (Codec.remaining r - 8) / 4 -> None
  | Some count ->
    let rec go i acc =
      if i = count then begin
        match Codec.int62 r with
        | Some h when Codec.at_end r ->
          let p = Parent.of_children (List.rev acc) in
          if Parent.hash ~seed p = h then Some p else None
        | _ -> None
      end
      else
        match Codec.u32 r with
        | Some len when len mod 8 = 0 && len <= Codec.remaining r -> (
          match Iset.read_canonical r (len / 8) with
          | Some s -> go (i + 1) (s :: acc)
          | None -> None)
        | _ -> None
    in
    go 0 []

let reconcile_sos ~link ~kind ~seed ~u ~h ?(initial_d = 4) ?(max_attempts = 5)
    ?attempt_deadline_us ?run_deadline_us ~alice ~bob () =
  let ctx = mk_ctx ~link ~seed ?attempt_deadline_us ?run_deadline_us () in
  let direct_payload = lazy (sos_direct_payload ~seed alice) in
  (* The child-encoding salt is pinned to the base seed, so every attempt
     whose bound gives the same child geometry re-derives identical
     child-encoding configs; only the outer tables get fresh per-attempt
     salts. One memo for this request lets later attempts reuse the
     encodings of earlier ones, and it is dropped when the request
     returns. *)
  let memo = Enc_cache.create () in
  drive ctx ~max_attempts ~initial_d
    ~recon:(fun ~number ~d ->
      match
        Protocol.run_known ~memo kind ~comm:ctx.comm
          ~seed:(Hashing.attempt_seed ~seed ~attempt:number) ~enc_seed:(Some seed) ~d ~u ~h
          ~alice ~bob
      with
      | Ok (o : Protocol.outcome) -> Some o.Protocol.recovered
      | Error `Decode_failure -> None)
    ~direct:(fun () ->
      match Comm.xfer ctx.comm Comm.A_to_b ~label:"direct-transfer" (Lazy.force direct_payload) with
      | Error `Lost -> None
      | Ok bytes -> parse_direct_sos ~seed bytes)

module For_tests = struct
  let parse_direct_set = parse_direct_set
  let parse_direct_sos = parse_direct_sos
end
