(* Server bench: incremental sketch maintenance vs rebuild-from-scratch,
   and trace-driven load through the reconciliation daemon.

   Two workloads:

   - [maintenance]: a 10^5-element shard. The daemon's sketch cost per
     reconcile is one mutation through [Shard.apply] (a signed walk of
     the key over the N-cell rateless prefix) plus one epoch snapshot
     (a copy of the prefix); the naive alternative builds the N-cell
     prefix from the member set on every request. Both are timed; the
     claim is the speedup. Also ns/mutation through [Shard.apply]. These
     are wall-clock figures, so they go to stdout only.

   - [load]: the seeded load generator — hundreds to thousands of
     simulated clients with staggered arrivals and a concurrent mutation
     stream, over per-client lossy links sharing one virtual clock.
     Reports sessions/sec, p50/p99 virtual-time latency and the bytes of
     every client's transcript, plus the transcript digest that pins
     run-for-run determinism. Its row is the
     whole of BENCH_server.json; its wall time goes to stdout only.

   Gates (exit 2): apply plus snapshot not >= 10x cheaper than building
   the prefix; any session failing inside the generator's deadline;
   metrics registry disagreeing with the generator's ground-truth counts.
   Every field of the load row is a function of the seed in virtual time,
   so the committed BENCH_server.json (the smoke run) is its own exact
   baseline: CI regenerates it and fails on
   [git diff --exit-code -- BENCH_server.json].

   Run:   dune exec bench/main.exe -- server [--smoke]   *)

module Metrics = Ssr_obs.Metrics
module Shard = Ssr_server.Shard
module Rateless = Ssr_sketch.Rateless
module Load_gen = Ssr_server.Load_gen

let seed = 0x5EA5E11L

(* ------------------------------------------------------------------ *)
(* Incremental maintenance vs rebuild                                  *)
(* ------------------------------------------------------------------ *)

let maintenance () =
  let n = 100_000 in
  let sh = Shard.create ~server_seed:seed ~id:0 () in
  for i = 0 to n - 1 do
    ignore (Shard.apply sh (Shard.Add (1_000_000 + i)))
  done;
  let members = Shard.members sh in
  let cells = Shard.prefix_cells ~rung_caps:Shard.default_rung_caps ~check_bits:32 in
  let snapshot_ns = Perf.measure ~trials:5 (fun () -> Shard.snapshot sh) in
  let rebuild_ns =
    Perf.measure ~trials:5 (fun () ->
        let seed = Shard.prefix_seed ~server_seed:seed ~shard:0 in
        Rateless.cells (Rateless.source_of_ints ~seed members) ~lo:0 ~hi:cells)
  in
  (* Mutation cost, two flavours: the pure O(k) sketch path (epoch
     thresholds pushed out of reach) and the amortized cost with the
     default thresholds, where periodic O(n) estimator refreshes are
     part of the price. *)
  let sh_hot =
    Shard.create ~server_seed:seed ~id:1 ~refresh_every:max_int ~tainted_max:max_int ()
  in
  for i = 0 to n - 1 do
    ignore (Shard.apply sh_hot (Shard.Add (1_000_000 + i)))
  done;
  let toggle s =
    ignore (Shard.apply s (Shard.Add 900_000_000));
    ignore (Shard.apply s (Shard.Remove 900_000_000))
  in
  let apply_hot_ns = Perf.measure ~trials:5 (fun () -> toggle sh_hot) /. 2.0 in
  let apply_ns = Perf.measure ~trials:5 (fun () -> toggle sh) /. 2.0 in
  let speedup = rebuild_ns /. Float.max 1.0 (apply_hot_ns +. snapshot_ns) in
  Printf.printf
    "server: maintenance @ %d elems, %d-cell prefix | apply %.0f ns hot, %.0f ns amortized | snapshot %.0f ns | rebuild %.0f ns | speedup %.0fx\n%!"
    n cells apply_hot_ns apply_ns snapshot_ns rebuild_ns speedup;
  speedup

(* ------------------------------------------------------------------ *)
(* Load generator                                                      *)
(* ------------------------------------------------------------------ *)

let load_row ~smoke =
  let cfg = if smoke then Load_gen.smoke_cfg ~seed else Load_gen.default_cfg ~seed in
  let cfg = { cfg with Load_gen.drop = 0.01 } in
  let before = Metrics.snapshot () in
  let t0 = Perf.now_ns () in
  let r = Load_gen.run cfg in
  let wall_ms = Int64.to_float (Int64.sub (Perf.now_ns ()) t0) /. 1e6 in
  let d = Metrics.diff ~before ~after:(Metrics.snapshot ()) in
  Printf.printf
    "server: load %d clients | %d ok %d failed | %.0f sessions/s | p50 %d us p99 %d us | %d wire bytes | wall %.0f ms\n%!"
    r.Load_gen.clients r.Load_gen.completed r.Load_gen.failed r.Load_gen.sessions_per_sec
    r.Load_gen.p50_us r.Load_gen.p99_us r.Load_gen.wire_bytes wall_ms;
  let metrics_ok =
    Metrics.counter_value d "server.mutations.applied" = r.Load_gen.mutations_applied
    && Metrics.counter_value d "server.sessions.completed" = r.Load_gen.completed
  in
  if not metrics_ok then
    Printf.printf
      "server: metrics mismatch - counters (%d applied, %d completed) vs ground truth (%d, %d)\n%!"
      (Metrics.counter_value d "server.mutations.applied")
      (Metrics.counter_value d "server.sessions.completed")
      r.Load_gen.mutations_applied r.Load_gen.completed;
  ( [ ("name", Perf.S "load"); ("clients", Perf.I r.Load_gen.clients);
      ("completed", Perf.I r.Load_gen.completed); ("failed", Perf.I r.Load_gen.failed);
      ("rejected_tries", Perf.I r.Load_gen.rejected_tries);
      ("escalations", Perf.I r.Load_gen.escalations);
      ("mutations_applied", Perf.I r.Load_gen.mutations_applied);
      ("elapsed_virtual_ms", Perf.I (r.Load_gen.elapsed_us / 1000));
      ("sessions_per_sec", Perf.F r.Load_gen.sessions_per_sec);
      ("p50_us", Perf.I r.Load_gen.p50_us); ("p99_us", Perf.I r.Load_gen.p99_us);
      ("wire_bytes", Perf.I r.Load_gen.wire_bytes);
      ("transcript_digest", Perf.S r.Load_gen.transcript_digest) ],
    (r, metrics_ok) )

(* ------------------------------------------------------------------ *)

let run ~smoke =
  Printf.printf "server: reconciliation daemon - incremental maintenance + trace-driven load%s\n%!"
    (if smoke then " (smoke)" else "");
  let speedup = maintenance () in
  let load_fields, (report, metrics_ok) = load_row ~smoke in
  Perf.write_json ~command:"dune exec bench/main.exe -- server" ~path:"BENCH_server.json"
    ~suite:"server" ~smoke [ load_fields ];
  if speedup < 10.0 then begin
    Printf.printf
      "server: FAIL - apply plus snapshot not >= 10x cheaper than building the prefix (%.1fx)\n%!"
      speedup;
    exit 2
  end;
  if report.Load_gen.failed > 0 then begin
    Printf.printf "server: FAIL - %d sessions failed inside the generator deadline\n%!"
      report.Load_gen.failed;
    exit 2
  end;
  if not metrics_ok then begin
    Printf.printf "server: FAIL - metrics registry lost updates vs ground truth\n%!";
    exit 2
  end;
  Printf.printf "server: all gates passed (speedup %.0fx, 0 failed sessions, metrics exact)\n%!"
    speedup
