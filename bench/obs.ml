(* Per-protocol communication observability bench.

   Runs the five reconciliation stacks (the four set-of-sets protocols plus
   the sets-of-sets-of-sets extension) on one fixed deterministic workload
   and emits the cost accounting the observability layer produces — total
   and per-direction bits, rounds, IBLT peel statistics, estimator activity
   — as BENCH_obs.json. Every number here is a pure function of the seed,
   so the committed BENCH_obs.json is its own exact baseline: CI
   regenerates it and fails on [git diff --exit-code -- BENCH_obs.json].

   Run:   dune exec bench/main.exe -- obs                                  *)

module Prng = Ssr_util.Prng
module Parent = Ssr_core.Parent
module Protocol = Ssr_core.Protocol
module Sos3 = Ssr_core.Sos3
module Comm = Ssr_setrecon.Comm
module Metrics = Ssr_obs.Metrics

let seed = 0x0B5E47ABL

(* ------------------------------------------------------------------ *)
(* Rows                                                                *)
(* ------------------------------------------------------------------ *)

(* One result row from a protocol run's cost report: transcript-level
   totals plus the metric deltas the run produced. Metric names absent
   from the diff read as zero ([Metrics.counter_value]), so rows have a
   fixed schema regardless of which counters a protocol touches. *)
let row ~protocol ~mode ~ok (stats : Comm.stats) (metrics : Metrics.snapshot) =
  let c = Metrics.counter_value metrics in
  let dist_mean name =
    match Metrics.find metrics name with
    | Some (Metrics.Dist d) when d.count > 0 ->
      float_of_int d.sum /. float_of_int d.count
    | _ -> 0.0
  in
  Printf.printf "  %-16s %-10s %2d rounds %9d bits%s\n" protocol mode stats.Comm.rounds
    stats.Comm.bits_total (if ok then "" else "  FAILED");
  [ ("name", Perf.S "proto_comm"); ("protocol", Perf.S protocol); ("mode", Perf.S mode);
    ("ok", Perf.B ok); ("rounds", Perf.I stats.Comm.rounds);
    ("bits_total", Perf.I stats.Comm.bits_total);
    ("bits_a_to_b", Perf.I stats.Comm.bits_a_to_b);
    ("bits_b_to_a", Perf.I stats.Comm.bits_b_to_a);
    ("iblt_inserts", Perf.I (c "iblt.inserts"));
    ("decode_attempts", Perf.I (c "iblt.decode.attempts"));
    ("decode_success", Perf.I (c "iblt.decode.success"));
    ("decode_stuck", Perf.I (c "iblt.decode.stuck"));
    ("peels", Perf.I (c "iblt.decode.peels"));
    ("checksum_rejects", Perf.I (c "iblt.decode.checksum_rejects"));
    ("l0_queries", Perf.I (c "estimator.l0.queries"));
    ("strata_queries", Perf.I (c "estimator.strata.queries"));
    ("l0_estimate_mean", Perf.F (dist_mean "estimator.l0.estimate"));
    ("strata_estimate_mean", Perf.F (dist_mean "estimator.strata.estimate")) ]

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

let sos_workload () =
  let u = 1 lsl 16 in
  let rng = Prng.create ~seed:(Prng.derive ~seed ~tag:0x0B51) in
  let bob = Parent.random rng ~universe:u ~children:16 ~child_size:24 in
  let alice, _ = Parent.perturb rng ~universe:u ~edits:6 bob in
  let d = max 6 (Parent.relaxed_matching_cost alice bob) in
  (u, alice, bob, d, 24 + 6)

let kind_rows () =
  let u, alice, bob, d, h = sos_workload () in
  let known kind =
    let ok, (rep : Protocol.cost_report) =
      match
        Protocol.report kind
          (Protocol.reconcile_known kind ~seed:(Prng.derive ~seed ~tag:0x0B52) ~d ~u ~h ~alice ~bob)
      with
      | Ok (o, rep) -> (Parent.equal o.Protocol.recovered alice, rep)
      | Error (`Decode_failure _, rep) -> (false, rep)
    in
    row ~protocol:rep.Protocol.protocol ~mode:"known_d" ~ok rep.Protocol.stats
      rep.Protocol.metrics
  in
  let unknown kind =
    let ok, (rep : Protocol.cost_report) =
      match
        Protocol.report kind
          (Protocol.reconcile_unknown kind ~seed:(Prng.derive ~seed ~tag:0x0B53) ~u ~h ~alice ~bob)
      with
      | Ok (o, rep) -> (Parent.equal o.Protocol.recovered alice, rep)
      | Error (`Decode_failure _, rep) -> (false, rep)
    in
    row ~protocol:rep.Protocol.protocol ~mode:"unknown_d" ~ok rep.Protocol.stats
      rep.Protocol.metrics
  in
  (* Let-bound so the rows run, and print, in table order: OCaml evaluates
     the operands of [@] right to left. *)
  let known_rows = List.map known Protocol.all in
  known_rows @ List.map unknown Protocol.all

let sos3_row () =
  let rng = Prng.create ~seed:(Prng.derive ~seed ~tag:0x0B54) in
  let mk () = Parent.random rng ~universe:100_000 ~children:10 ~child_size:12 in
  let bob = Sos3.of_parents (List.init 8 (fun _ -> mk ())) in
  let alice = Sos3.perturb rng ~universe:100_000 ~edits:3 bob in
  let d3, d2, d1 = Sos3.diff_bounds alice bob in
  let before = Metrics.snapshot () in
  let ok, stats =
    match
      Sos3.reconcile_known ~seed:(Prng.derive ~seed ~tag:0x0B55) ~d:(max 1 d1) ~d2:(max 1 d2)
        ~d3:(max 1 d3) ~alice ~bob ()
    with
    | Ok o -> (Sos3.equal o.Sos3.recovered alice, o.Sos3.stats)
    | Error (`Decode_failure stats) -> (false, stats)
  in
  let metrics = Metrics.diff ~before ~after:(Metrics.snapshot ()) in
  row ~protocol:"sos3" ~mode:"known_d" ~ok stats metrics

(* ------------------------------------------------------------------ *)

let run () =
  Printf.printf "obs: per-protocol communication table (fixed workload)\n%!";
  let kinds = kind_rows () in
  let results = kinds @ [ sos3_row () ] in
  Perf.write_json ~command:"dune exec bench/main.exe -- obs" ~path:"BENCH_obs.json" ~suite:"obs"
    ~smoke:false results
