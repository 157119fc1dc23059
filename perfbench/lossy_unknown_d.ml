(* lossy_unknown_d: decode- and transport-heavy reconciliation with the
   difference size unknown to every party.

   Everything runs through [Resilient] over a simulated 2 ms +- 0.5 ms link
   with 2% drop and 5% reordering. Plain sets of ~2e4 elements differ by d
   in {16, 256, 2048}, under the default strategy and under [Rateless];
   small parents (500 children of 16 elements, 48 edits) run multiround
   and cascade with the default ladder. Tables are sized to the difference,
   not the data, so peeling, rateless cells, estimators, retries, salvage,
   direct fallback, framing and ARQ do the work, and virtual time exposes
   the round count. *)

module Prng = Ssr_util.Prng
module Iset = Ssr_util.Iset
module Bits = Ssr_util.Bits
module Parent = Ssr_core.Parent
module Protocol = Ssr_core.Protocol
module Comm = Ssr_setrecon.Comm
module Clock = Ssr_transport.Clock
module Network = Ssr_transport.Network
module Arq = Ssr_transport.Arq
module Resilient = Ssr_transport.Resilient

let set_size = 20_000
let set_universe = 1 lsl 40
let sos_children = 500
let sos_child_size = 16
let sos_edits = 48
let sos_universe = 1 lsl 20

type kind = Set of { d : int; strategy : Resilient.strategy } | Sos of Protocol.kind

(* A cycle is the six set requests (each d under each strategy) and eight
   parent requests, four multiround and four cascade. With these weights
   the median and the p90 of both wall and virtual time fall inside one
   request type's cluster, not in the gap between two (the types differ by
   up to 25x in wall time and 450x in virtual time). *)
let cycle =
  let sets =
    List.concat_map
      (fun strategy -> List.map (fun d -> Set { d; strategy }) [ 16; 256; 2048 ])
      [ Resilient.Doubling; Resilient.Rateless ]
  in
  Array.of_list (sets @ List.concat (List.init 4 (fun _ -> [ Sos Protocol.Multiround; Sos Protocol.Cascade ])))

let stack_name = function
  | Set { strategy = Resilient.Doubling; _ } -> "set-doubling"
  | Set { strategy = Resilient.Rateless; _ } -> "set-rateless"
  | Sos k -> Protocol.name k

let stack_span kind = Span.acc ("core." ^ stack_name kind)

let logu u = float_of_int (Bits.bits_needed (max 2 (u - 1)))

(* Alice's twin of a set: [d / 2] of Bob's members removed and the rest of
   the difference added as fresh keys. *)
let set_twin rng bob ~d =
  let members = Iset.to_array bob in
  let n = Array.length members in
  let removed = Hashtbl.create d in
  while Hashtbl.length removed < d / 2 do
    Hashtbl.replace removed members.(Prng.int_below rng n) ()
  done;
  let added = Hashtbl.create d in
  while Hashtbl.length added < d - (d / 2) do
    let x = Prng.int_below rng set_universe in
    if not (Iset.mem x bob) then Hashtbl.replace added x ()
  done;
  let keys t = Iset.of_list (Hashtbl.fold (fun k () l -> k :: l) t []) in
  Iset.apply_diff bob ~add:(keys added) ~del:(keys removed)

(* The materialized bases: Bob's plain set and Bob's small parent. *)
let setup ~seed () =
  let rng = Prng.create ~seed:(Prng.derive ~seed ~tag:1) in
  let set = Iset.random_subset rng ~universe:set_universe ~size:set_size in
  let parent =
    Parent.random rng ~universe:sos_universe ~children:sos_children ~child_size:sos_child_size
  in
  (set, parent)

let request ~seed (bob_set, bob_parent) i =
  let kind = cycle.(i mod Array.length cycle) in
  let rseed = Prng.derive ~seed ~tag:(0x20000 + i) in
  let rng = Prng.create ~seed:(Prng.derive ~seed:rseed ~tag:1) in
  let clock = Clock.create () in
  let net =
    Network.create ~clock
      (Network.config_with ~drop:0.02 ~reorder:0.05 ~latency_us:2_000 ~jitter_us:500
         ~seed:(Prng.derive ~seed:rseed ~tag:3) ())
  in
  let arq = Arq.create ~clock ~network:net ~seed:(Prng.derive ~seed:rseed ~tag:4) () in
  let link = Resilient.over_network arq in
  let rseed' = Prng.derive ~seed:rseed ~tag:5 in
  let timed f =
    let t0 = Harness.now_s () in
    let r = Span.wrap (stack_span kind) f in
    (r, (Harness.now_s () -. t0) *. 1e3)
  in
  let status, report, wall_ms, bound_bits =
    match kind with
    | Set { d; strategy } -> (
      let alice = set_twin rng bob_set ~d in
      let r, wall_ms =
        timed (fun () -> Resilient.reconcile_set ~link ~seed:rseed' ~strategy ~alice ~bob:bob_set ())
      in
      let bound = float_of_int d *. logu set_universe in
      match r with
      | Ok (got, rep) ->
        ( (if Iset.equal got alice then Harness.Verified
           else Harness.Wrong (Printf.sprintf "lossy_unknown_d request %d (set d=%d): wrong set" i d)),
          rep, wall_ms, bound )
      | Error (`Transport_failure rep | `Deadline_exceeded rep) -> (Harness.Failed, rep, wall_ms, bound))
    | Sos k -> (
      let alice, _ = Parent.perturb rng ~universe:sos_universe ~edits:sos_edits bob_parent in
      let h = max (Parent.max_child_size alice) (Parent.max_child_size bob_parent) in
      let r, wall_ms =
        timed (fun () ->
            Resilient.reconcile_sos ~link ~kind:k ~seed:rseed' ~u:sos_universe ~h ~alice
              ~bob:bob_parent ())
      in
      let bound = Harness.paper_bound_bits k ~d:sos_edits ~s:sos_children ~u:sos_universe ~h in
      match r with
      | Ok (got, rep) ->
        ( (if Parent.equal got alice then Harness.Verified
           else
             Harness.Wrong
               (Printf.sprintf "lossy_unknown_d request %d (%s): wrong parent" i (Protocol.name k))),
          rep, wall_ms, bound )
      | Error (`Transport_failure rep | `Deadline_exceeded rep) -> (Harness.Failed, rep, wall_ms, bound))
  in
  let st = report.Resilient.stats in
  {
    Harness.stack =
      (match kind with Set { d; _ } -> Printf.sprintf "%s-d%d" (stack_name kind) d | Sos _ -> stack_name kind);
    status;
    wall_ms;
    virtual_us = Clock.now_us clock;
    wire_bytes = report.Resilient.wire_bytes;
    payload_bits = st.Comm.bits_total;
    bound_bits;
    rounds = st.Comm.rounds;
    messages = List.length st.Comm.messages;
  }

let run ~seed ~seconds =
  let bases = Harness.setup5 (setup ~seed) in
  Printf.printf
    "lossy_unknown_d: sets n=%d d in {16,256,2048} x {doubling,rateless}; parents s=%d h=%d edits=%d x {multiround,cascade}; closed loop, 1 caller\n"
    set_size sos_children sos_child_size sos_edits;
  Harness.closed_loop ~prefix:(16 * Array.length cycle) ~replay:(Array.length cycle) ~seconds
    (request ~seed bases)
