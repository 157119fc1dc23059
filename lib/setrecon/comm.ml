module Buf = Ssr_util.Buf
module Codec = Ssr_util.Codec
module Iblt = Ssr_sketch.Iblt
module L0 = Ssr_sketch.L0_estimator
module Metrics = Ssr_obs.Metrics
module Trace = Ssr_obs.Trace

let m_messages = Metrics.counter "comm.messages"
let m_lost = Metrics.counter "comm.lost"
let m_bits_a_to_b = Metrics.counter "comm.bits.a_to_b"
let m_bits_b_to_a = Metrics.counter "comm.bits.b_to_a"

type direction = A_to_b | B_to_a

type message = { round : int; direction : direction; label : string; bits : int }

type transport = {
  transmit : direction -> label:string -> Bytes.t -> Bytes.t option;
  overhead_bits : int;
}

type t = { mutable log : message list (* newest first *); mutable transport : transport option }

type stats = {
  rounds : int;
  bits_total : int;
  bits_a_to_b : int;
  bits_b_to_a : int;
  messages : message list;
}

let create () = { log = []; transport = None }

let set_transport t transport = t.transport <- Some transport

let xfer t direction ~label payload =
  let bits =
    (8 * Bytes.length payload) + match t.transport with None -> 0 | Some tr -> tr.overhead_bits
  in
  let round =
    match t.log with
    | [] -> 1
    | last :: _ -> if last.direction = direction then last.round else last.round + 1
  in
  Metrics.incr m_messages;
  Metrics.add (match direction with A_to_b -> m_bits_a_to_b | B_to_a -> m_bits_b_to_a) bits;
  Trace.emit ~layer:"comm"
    ~fields:
      [
        ("round", Trace.I round);
        ("dir", Trace.S (match direction with A_to_b -> "a->b" | B_to_a -> "b->a"));
        ("bits", Trace.I bits);
      ]
    label;
  t.log <- { round; direction; label; bits } :: t.log;
  match t.transport with
  | None -> Ok payload
  | Some tr -> (
    match tr.transmit direction ~label payload with
    | Some delivered -> Ok delivered
    | None ->
      Metrics.incr m_lost;
      Error `Lost)

type 'a party =
  | Send of string * Bytes.t * 'a party
  | Recv of ((Bytes.t, [ `Lost ]) result -> 'a party)
  | Done of 'a

(* Bob's state decides each step; with nothing from Alice he times out. *)
let rec drive t ~alice ~bob =
  match bob with
  | Done r -> r
  | Send (label, payload, bob) ->
    let got = xfer t B_to_a ~label payload in
    drive t ~alice:(match alice with Recv k -> k got | other -> other) ~bob
  | Recv k -> (
    match alice with
    | Send (label, payload, alice) -> drive t ~alice ~bob:(k (xfer t A_to_b ~label payload))
    | Recv _ | Done _ -> drive t ~alice ~bob:(k (Error `Lost)))

let rec map f = function
  | Done x -> Done (f x)
  | Send (label, payload, next) -> Send (label, payload, map f next)
  | Recv k -> Recv (fun got -> map f (k got))

let guarded tables ~guard =
  let lengths = Array.map (fun tb -> Iblt.size_bits tb / 8) tables in
  let payload = Bytes.create (Array.fold_left ( + ) 8 lengths) in
  let pos = ref 0 in
  Array.iteri
    (fun i tb ->
      Iblt.blit_body tb payload !pos;
      pos := !pos + lengths.(i))
    tables;
  Buf.set_int_le payload !pos guard;
  payload

(* Bob re-slices the delivered bytes by parameters he derives himself from
   public coins, so a truncated, padded or resized transmission fails
   here, totally. *)
let parse_guarded prms = function
  | Error `Lost -> None
  | Ok delivered -> (
    let r = Codec.reader delivered in
    let parsed =
      Array.map
        (fun prm -> Option.bind (Codec.take r (Iblt.body_length prm)) (Iblt.of_body_bytes_opt prm))
        prms
    in
    match Codec.int62 r with
    | Some guard when Codec.at_end r && Array.for_all Option.is_some parsed ->
      Some (Array.map Option.get parsed, guard)
    | _ -> None)

let sized (prm : Iblt.params) got =
  let cell = Iblt.body_length { prm with cells = prm.k } / prm.k in
  let body = match got with Ok b -> Bytes.length b - 8 | Error `Lost -> -1 in
  let cells = body / cell in
  if body >= 0 && body mod cell = 0 && cells mod prm.k = 0 && cells >= 2 * prm.k then
    Some { prm with cells }
  else None

let estimator ~seed keys =
  let est = L0.create ~seed () in
  L0.update_all est L0.S1 keys;
  L0.to_bytes est

let estimate ~seed keys = function
  | Error `Lost -> None
  | Ok delivered ->
    Option.bind (L0.of_bytes_opt ~seed delivered) (fun theirs ->
        let mine = L0.create ~seed () in
        L0.update_all mine L0.S2 keys;
        L0.query_opt (L0.merge theirs mine))

(* Bob's control request. Alice goes on whatever arrives: she sends the
   next attempt when the request reaches her and on her own timeout when
   it is lost or damaged, so nothing she does depends on its bytes. *)
let request_retry t = ignore (xfer t B_to_a ~label:"retry" (Bytes.make 1 '\001'))

let stats t =
  let messages = List.rev t.log in
  let rounds = match t.log with [] -> 0 | last :: _ -> last.round in
  let bits_a_to_b, bits_b_to_a =
    List.fold_left
      (fun (ab, ba) m -> match m.direction with A_to_b -> (ab + m.bits, ba) | B_to_a -> (ab, ba + m.bits))
      (0, 0) messages
  in
  { rounds; bits_total = bits_a_to_b + bits_b_to_a; bits_a_to_b; bits_b_to_a; messages }

let run exchange =
  let t = create () in
  match exchange t with Ok o -> Ok o | Error `Decode_failure -> Error (`Decode_failure (stats t))

let retry_doubling t ~retries ~d ~stop attempt =
  let rec go i d =
    if stop ~attempt:i ~d then Error `Decode_failure
    else
      match attempt ~attempt:i ~d with
      | Ok o -> Ok o
      | Error `Decode_failure ->
        (* Bob asks for a bigger table: one tiny message back. *)
        Metrics.incr retries;
        request_retry t;
        go (i + 1) (2 * d)
  in
  go 0 d

(* Transmission-order interleaving of two round-sorted transcripts: merge by
   round number, ties keeping the first transcript's messages first. Both
   inputs are nondecreasing in [round] (the [stats] invariant), so the output
   is too. *)
let rec interleave a b =
  match (a, b) with
  | [], ms | ms, [] -> ms
  | x :: xs, y :: ys -> if x.round <= y.round then x :: interleave xs b else y :: interleave a ys

let merge_stats a b =
  {
    rounds = max a.rounds b.rounds;
    bits_total = a.bits_total + b.bits_total;
    bits_a_to_b = a.bits_a_to_b + b.bits_a_to_b;
    bits_b_to_a = a.bits_b_to_a + b.bits_b_to_a;
    messages = interleave a.messages b.messages;
  }

(* Per-round breakdown of a transcript: messages are already in transmission
   order with nondecreasing round numbers, so one left fold groups them. *)
let per_round_bits s =
  let tally = Hashtbl.create 16 in
  let max_round = ref 0 in
  List.iter
    (fun m ->
      if m.round > !max_round then max_round := m.round;
      let ab, ba = try Hashtbl.find tally m.round with Not_found -> (0, 0) in
      Hashtbl.replace tally m.round
        (match m.direction with A_to_b -> (ab + m.bits, ba) | B_to_a -> (ab, ba + m.bits)))
    s.messages;
  List.init !max_round (fun i ->
      let r = i + 1 in
      let ab, ba = try Hashtbl.find tally r with Not_found -> (0, 0) in
      (r, ab, ba))

let pp_stats fmt s =
  Format.fprintf fmt "rounds=%d total=%d bits (A->B %d, B->A %d)" s.rounds s.bits_total s.bits_a_to_b
    s.bits_b_to_a

let show_stats s = Format.asprintf "%a" pp_stats s
