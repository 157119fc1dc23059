(* Rateless-vs-doubling bench: bytes and round trips across the
   latency x loss grid, with the true difference d unknown to both sides.

   Per grid point (latency, drop, d) both first-rung strategies of the
   Resilient ladder run the same workloads over the same simulated
   network, each with a 14-attempt budget: [Doubling] guesses a bound and
   doubles it on every failed attempt, [Rateless] streams coded cells and
   stops at the first decodable prefix. Rows report the median rounds and wire bytes (ARQ
   counter: retransmissions and ACKs included) of each strategy over a
   few seeded trials.

   Gates (exit 2): any silent corruption; rateless not strictly fewer
   rounds than doubling at any grid point; rateless bytes above 1.5x
   doubling at the same point (1.0x once drop >= 5%, where doubling
   re-ships whole tables); a rateless run whose wire transcript is not
   byte-identical when replayed from the same seeds. Every field of every
   row is seed-determined, so the committed BENCH_rateless.json is its own
   exact baseline: CI regenerates it and fails on
   [git diff --exit-code -- BENCH_rateless.json].

   Run:   dune exec bench/main.exe -- rateless                             *)

module Prng = Ssr_util.Prng
module Iset = Ssr_util.Iset
module Comm = Ssr_setrecon.Comm
module Clock = Ssr_transport.Clock
module Network = Ssr_transport.Network
module Arq = Ssr_transport.Arq
module Resilient = Ssr_transport.Resilient

let seed = 0x7A7E1E55L

let latencies_us = [ 0; 2_000; 10_000 ]
let drops = [ 0.0; 0.05; 0.2 ]
let diffs = [ 16; 64; 256; 1024; 4096 ]
let trials = 3

(* Both sides hold a common core plus their own extras: the difference is
   split between them and neither side can infer d from its own size. *)
let workload ~wseed ~d =
  let rng = Prng.create ~seed:wseed in
  let draw lo n =
    let s = ref Iset.empty in
    while Iset.cardinal !s < n do
      s := Iset.add (lo + Prng.int_below rng (1 lsl 40)) !s
    done;
    !s
  in
  let common = draw 0 256 in
  let alice = Iset.union common (draw (1 lsl 40) (d / 2)) in
  let bob = Iset.union common (draw (2 lsl 40) (d - (d / 2))) in
  (alice, bob)

type run_result = { ok : bool; silent : bool; rounds : int; bytes : int }

let mk_link ~nseed ~latency_us ~drop =
  let clock = Clock.create () in
  let network =
    Network.create ~clock
      (Network.config_with ~drop ~corrupt:0.01 ~latency_us ~jitter_us:(latency_us / 4)
         ~seed:nseed ())
  in
  let arq = Arq.create ~clock ~network ~seed:nseed () in
  (Resilient.over_network arq, network)

let run_once ~strategy ~latency_us ~drop ~d ~t =
  let wseed = Prng.derive ~seed ~tag:(0x4000 + (16 * d) + t) in
  let nseed = Prng.derive ~seed:wseed ~tag:(latency_us + int_of_float (1000. *. drop)) in
  let alice, bob = workload ~wseed ~d in
  let link, _network = mk_link ~nseed ~latency_us ~drop in
  match
    Resilient.reconcile_set ~link ~seed:wseed ~strategy ~initial_d:4 ~max_attempts:14 ~alice ~bob
      ()
  with
  | Ok (recovered, rep) ->
    let ok = Iset.equal recovered alice in
    {
      ok;
      silent = not ok;
      rounds = rep.Resilient.stats.Comm.rounds;
      bytes = rep.Resilient.wire_bytes;
    }
  | Error (`Transport_failure rep | `Deadline_exceeded rep) ->
    { ok = false; silent = false; rounds = rep.Resilient.stats.Comm.rounds;
      bytes = rep.Resilient.wire_bytes }

let median xs =
  match List.sort compare xs with
  | [] -> 0
  | s -> List.nth s (List.length s / 2)

let strategy_point ~strategy ~latency_us ~drop ~d =
  let runs = List.init trials (fun t -> run_once ~strategy ~latency_us ~drop ~d ~t) in
  let failed = List.exists (fun r -> not r.ok) runs in
  let silent = List.exists (fun r -> r.silent) runs in
  (median (List.map (fun r -> r.rounds) runs), median (List.map (fun r -> r.bytes) runs),
   failed, silent)

let grid_row ~latency_us ~drop ~d =
  let d_rounds, d_bytes, d_failed, d_silent =
    strategy_point ~strategy:Resilient.Doubling ~latency_us ~drop ~d
  in
  let r_rounds, r_bytes, r_failed, r_silent =
    strategy_point ~strategy:Resilient.Rateless ~latency_us ~drop ~d
  in
  let ratio_pct = if d_bytes = 0 then 0 else 100 * r_bytes / d_bytes in
  ( [ ("name", Perf.S "rateless_grid"); ("latency_us", Perf.I latency_us);
      ("drop_pct", Perf.I (int_of_float (100. *. drop))); ("d", Perf.I d);
      ("trials", Perf.I trials);
      ("doubling_rounds", Perf.I d_rounds); ("doubling_bytes", Perf.I d_bytes);
      ("rateless_rounds", Perf.I r_rounds); ("rateless_bytes", Perf.I r_bytes);
      ("bytes_ratio_pct", Perf.I ratio_pct);
      ("failed", Perf.B (d_failed || r_failed));
      ("silent", Perf.B (d_silent || r_silent)) ],
    (d_rounds, d_bytes, r_rounds, r_bytes, d_failed || r_failed, d_silent || r_silent) )

(* ------------------------------------------------------------------ *)
(* Replay determinism: same seeds, byte-identical wire transcript      *)
(* ------------------------------------------------------------------ *)

let transcript ~latency_us ~drop ~d =
  let wseed = Prng.derive ~seed ~tag:0x7E7E in
  let nseed = Prng.derive ~seed:wseed ~tag:latency_us in
  let alice, bob = workload ~wseed ~d in
  let link, network = mk_link ~nseed ~latency_us ~drop in
  (match
     Resilient.reconcile_set ~link ~seed:wseed ~strategy:Resilient.Rateless ~initial_d:4
       ~max_attempts:14 ~alice ~bob ()
   with
  | Ok (recovered, _) -> assert (Iset.equal recovered alice)
  | Error _ -> failwith "rateless replay run failed");
  let b = Buffer.create 4096 in
  List.iter
    (fun (e : Network.delivery) ->
      Buffer.add_string b (string_of_int e.Network.delivered_us);
      Buffer.add_char b ':';
      Buffer.add_bytes b e.Network.bytes;
      Buffer.add_char b '\n')
    (Network.transcript network);
  Buffer.contents b

let check_replay () =
  List.for_all
    (fun (latency_us, drop, d) ->
      let a = transcript ~latency_us ~drop ~d in
      let b = transcript ~latency_us ~drop ~d in
      let same = String.equal a b in
      if not same then
        Printf.printf "rateless: replay divergence at latency=%dus drop=%g d=%d\n%!" latency_us
          drop d;
      same)
    [ (2_000, 0.05, 64); (10_000, 0.2, 256) ]

(* ------------------------------------------------------------------ *)

let run () =
  Printf.printf
    "rateless: coded-cell stream vs doubling IBLT over the latency x loss grid (d unknown)\n%!";
  let grid =
    List.concat_map
      (fun latency_us ->
        List.concat_map
          (fun drop -> List.map (fun d -> grid_row ~latency_us ~drop ~d) diffs)
          drops)
      latencies_us
  in
  let rows = List.map fst grid in
  List.iter
    (fun row ->
      let geti k = match List.assoc_opt k row with Some (Perf.I v) -> v | _ -> 0 in
      Printf.printf
        "  lat=%-6d drop=%2d%% d=%-5d | doubling %3d rounds %8d B | rateless %3d rounds %8d B | ratio %3d%%\n%!"
        (geti "latency_us") (geti "drop_pct") (geti "d") (geti "doubling_rounds")
        (geti "doubling_bytes") (geti "rateless_rounds") (geti "rateless_bytes")
        (geti "bytes_ratio_pct"))
    rows;
  Perf.write_json ~command:"dune exec bench/main.exe -- rateless" ~path:"BENCH_rateless.json"
    ~suite:"rateless" ~smoke:false rows;
  let silent = List.exists (fun (_, (_, _, _, _, _, s)) -> s) grid in
  let failed = List.exists (fun (_, (_, _, _, _, f, _)) -> f) grid in
  let rounds_ok =
    List.for_all (fun (_, (d_rounds, _, r_rounds, _, _, _)) -> r_rounds < d_rounds) grid
  in
  let bytes_ok =
    List.for_all
      (fun (row, (_, d_bytes, _, r_bytes, _, _)) ->
        let dp = match List.assoc_opt "drop_pct" row with Some (Perf.I v) -> v | _ -> 0 in
        if dp >= 5 then r_bytes <= d_bytes else 2 * r_bytes <= 3 * d_bytes)
      grid
  in
  if silent then begin
    Printf.printf "rateless: FAIL - silent corruption\n%!";
    exit 2
  end;
  if failed then begin
    Printf.printf "rateless: FAIL - a strategy failed to reconcile inside its budget\n%!";
    exit 2
  end;
  if not rounds_ok then begin
    Printf.printf "rateless: FAIL - not strictly fewer rounds than doubling at every grid point\n%!";
    exit 2
  end;
  if not bytes_ok then begin
    Printf.printf
      "rateless: FAIL - bytes above 1.5x doubling (1.0x at drop >= 5%%) at a grid point\n%!";
    exit 2
  end;
  if not (check_replay ()) then begin
    Printf.printf "rateless: FAIL - wire transcript not reproducible from seeds\n%!";
    exit 2
  end;
  Printf.printf "rateless: all gates passed (fewer rounds everywhere, bytes within ratio, replay exact)\n%!"
