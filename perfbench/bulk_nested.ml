(* bulk_nested: build-heavy set-of-sets reconciliation over streamed parents.

   Bob is a streamed Zipf parent (alpha = 1, ~2.3e4 elements); request i's
   Alice is a [Datasets.pair] twin with 64 fresh elements and its own edit
   seed, salt and encoding seed. The four protocols run through
   [Protocol.run_known_stream] over a simulated 2 ms +- 0.5 ms link with 2%
   drop and 1% corruption under the ARQ, with salted retries as in
   bench/million.ml. Walking the streams, encoding children and building
   IBLTs do most of the work; peeling touches O(d) cells and the link
   carries a handful of messages. *)

module Prng = Ssr_util.Prng
module Iset = Ssr_util.Iset
module Hashing = Ssr_util.Hashing
module Comm = Ssr_setrecon.Comm
module Parent = Ssr_core.Parent
module Protocol = Ssr_core.Protocol
module Datasets = Ssr_apps.Datasets
module Clock = Ssr_transport.Clock
module Network = Ssr_transport.Network
module Arq = Ssr_transport.Arq

(* ~2.3e4 elements: large enough that building dominates, small enough
   that a 20 s run completes the >= 100 reconciliations a p90 with ten
   samples beyond it needs on a 2-core machine. *)
let parents = 12_000

let edits = 64

let max_attempts = 5

(* Naive and multiround cost about a tenth of the other two stacks, so
   they run twice per cycle: the median and the p90 then fall inside one
   stack's latency cluster instead of in the gap between two. *)
let cycle = Protocol.[| Naive; Iblt_of_iblts; Multiround; Cascade; Naive; Multiround |]

let span_child = Span.acc "datasets.child"
let span_transmit = Span.acc "transport.transmit"
let stack_span kind = Span.acc ("core." ^ Protocol.name kind)

(* Under tracing, every child the protocols pull from a stream and every
   message they hand the link is timed. *)
let traced_stream (st : Parent.stream) =
  if not !Span.enabled then st
  else { st with Parent.child = (fun i -> Span.wrap span_child (fun () -> st.Parent.child i)) }

let traced_transport (tr : Comm.transport) =
  if not !Span.enabled then tr
  else
    {
      tr with
      Comm.transmit = (fun dir ~label b -> Span.wrap span_transmit (fun () -> tr.Comm.transmit dir ~label b));
    }

let sorted l = List.sort Iset.compare l

(* Ground truth of a twin, from the streams themselves: Alice's edited
   children are exactly those holding an element at or above Bob's
   universe, and Bob's side of the delta is his child at the same
   positions. *)
let expected_delta (bob : Datasets.instance) (alice : Datasets.instance) =
  let u = bob.Datasets.universe in
  let a = ref [] and b = ref [] in
  for i = 0 to alice.Datasets.stream.Parent.length - 1 do
    let c = alice.Datasets.stream.Parent.child i in
    if (not (Iset.is_empty c)) && Iset.max_elt c >= u then begin
      a := c :: !a;
      b := bob.Datasets.stream.Parent.child i :: !b
    end
  done;
  (sorted !a, sorted !b)

(* The instance is a pure function of position; set-up also walks it once
   for the sizes the report prints. *)
let setup ~seed () =
  let bob =
    Datasets.zipf ~seed:(Prng.derive ~seed ~tag:1) ~parents ~universe:(1 lsl 30) ~max_child_size:24
      ~alpha:1.0
  in
  (bob, Parent.stream_total_elements bob.Datasets.stream, Parent.stream_max_child_size bob.Datasets.stream)

let request ~seed (bob : Datasets.instance) i =
  let kind = cycle.(i mod Array.length cycle) in
  let rseed = Prng.derive ~seed ~tag:(0x10000 + i) in
  let wseed = Prng.derive ~seed:rseed ~tag:1 in
  let alice = Datasets.pair ~seed:(Prng.derive ~seed:rseed ~tag:2) ~edits bob in
  let expect_a, expect_b = expected_delta bob alice in
  let clock = Clock.create () in
  let net =
    Network.create ~clock
      (Network.config_with ~drop:0.02 ~corrupt:0.01 ~latency_us:2_000 ~jitter_us:500
         ~seed:(Prng.derive ~seed:rseed ~tag:3) ())
  in
  let arq = Arq.create ~clock ~network:net ~seed:(Prng.derive ~seed:rseed ~tag:4) () in
  let transport = traced_transport (Arq.transport arq) in
  let alice_st = traced_stream alice.Datasets.stream
  and bob_st = traced_stream bob.Datasets.stream in
  let u = alice.Datasets.universe and h = alice.Datasets.max_child_size in
  let rec go attempt bits rounds messages =
    if attempt >= max_attempts then (None, bits, rounds, messages)
    else begin
      let comm = Comm.create () in
      Comm.set_transport comm transport;
      let result =
        Protocol.run_known_stream kind ~comm ~seed:(Hashing.attempt_seed ~seed:wseed ~attempt)
          ~enc_seed:(Some wseed) ~d:edits ~u ~h ~alice:alice_st ~bob:bob_st
      in
      let st = Comm.stats comm in
      let bits = bits + st.Comm.bits_total
      and rounds = rounds + st.Comm.rounds
      and messages = messages + List.length st.Comm.messages in
      match result with
      | Ok o -> (Some o.Protocol.delta, bits, rounds, messages)
      | Error `Decode_failure -> go (attempt + 1) bits rounds messages
    end
  in
  let t0 = Harness.now_s () in
  let delta, payload_bits, rounds, messages = Span.wrap (stack_span kind) (fun () -> go 0 0 0 0) in
  let wall_ms = (Harness.now_s () -. t0) *. 1e3 in
  let status =
    match delta with
    | None -> Harness.Failed
    | Some d ->
      if
        List.equal Iset.equal (sorted d.Parent.a_only) expect_a
        && List.equal Iset.equal (sorted d.Parent.b_only) expect_b
      then Harness.Verified
      else Harness.Wrong (Printf.sprintf "bulk_nested request %d (%s): delta differs from the edits" i (Protocol.name kind))
  in
  {
    Harness.stack = Protocol.name kind;
    status;
    wall_ms;
    virtual_us = Clock.now_us clock;
    wire_bytes = (Arq.stats arq).Arq.wire_bytes;
    payload_bits;
    bound_bits = Harness.paper_bound_bits kind ~d:edits ~s:bob.Datasets.stream.Parent.length ~u ~h;
    rounds;
    messages;
  }

let run ~seed ~seconds =
  let bob, n, h = Harness.setup5 (setup ~seed) in
  Printf.printf "bulk_nested: s=%d n=%d h=%d d=%d, closed loop, 1 caller\n" bob.Datasets.stream.Parent.length n h
    edits;
  Harness.closed_loop ~prefix:(18 * Array.length cycle) ~replay:(Array.length cycle) ~seconds
    (request ~seed bob)
