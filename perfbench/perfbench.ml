(* The repository's benchmark.

   perfbench --workload <bulk_nested|lossy_unknown_d|server_churn>
             --seed <n> --seconds <s> --trace <0|1>

   drives only public entry points of lib/ (Protocol.run_known_stream,
   Resilient.reconcile_set / reconcile_sos, Server, Client, Network, Clock)
   with inputs generated from --seed, checks every result against ground
   truth, and prints as its last line one JSON object. With --trace 0 the
   metrics are the end-to-end ones; with --trace 1 the run measures
   untraced for half the time and traced for the other half, and reports
   the per-layer metrics. The Par pool stays serial (its default). Nothing
   is written but stdout and stderr.

   Layers no workload exercises yet: graphrecon's signature protocols and
   the poly_protocol field kernels (the traced run prints
   field.karatsuba.calls, which stays 0). None of the three workloads goes
   through them, so a change there cannot move these numbers; a later
   workload can add them. *)

module Metrics = Ssr_obs.Metrics

let workloads =
  [
    ("bulk_nested", Bulk_nested.run);
    ("lossy_unknown_d", Lossy_unknown_d.run);
    ("server_churn", Server_churn.run);
  ]

(* Where the time and bytes of each stack went, for reading the
   end-to-end figures. *)
let print_stacks (r : Harness.run) =
  let open Harness in
  let stacks = List.sort_uniq compare (Array.to_list (Array.map (fun s -> s.stack) r.samples)) in
  Printf.printf "  %-22s %6s %12s %12s %12s\n" "stack" "count" "wall_ms_p50" "virt_ms_p50" "wire_bytes";
  List.iter
    (fun st ->
      let of_stack = Array.of_list (List.filter (fun s -> s.stack = st) (Array.to_list r.samples)) in
      Printf.printf "  %-22s %6d %12.3f %12.3f %12.0f\n" st (Array.length of_stack)
        (quantile (Array.map (fun s -> s.wall_ms) of_stack) 0.5)
        (quantile (Array.map (fun s -> float_of_int s.virtual_us /. 1e3) of_stack) 0.5)
        (Array.fold_left (fun a s -> a +. float_of_int s.wire_bytes) 0. of_stack
        /. float_of_int (Array.length of_stack)))
    stacks

(* Wall times come from every reconciliation of the run; wire bytes and
   virtual times from the deterministic prefix, so they repeat exactly for
   a seed. The result carries verified_frac rather than fail_frac, which
   is printed above it: a reported metric must never be 0. *)
let e2e_metrics (r : Harness.run) =
  let open Harness in
  print_stacks r;
  let n = Array.length r.samples in
  let walls = Array.map (fun s -> s.wall_ms) r.samples in
  let prefix = Array.sub r.samples 0 (min r.prefix n) in
  let virt = Array.map (fun s -> float_of_int s.virtual_us /. 1e3) prefix in
  let beyond q a = Array.length a - int_of_float (Float.ceil (q *. float_of_int (Array.length a))) in
  Printf.printf "samples: %d reconciliations timed (%d beyond p90); %d in the deterministic prefix (%d beyond p90)\n"
    n (beyond 0.9 walls) (Array.length prefix) (beyond 0.9 virt);
  Printf.printf "fail_frac: %.6f (%d typed failures of %d attempted)\n"
    (float_of_int (failed r) /. float_of_int (max 1 n)) (failed r) n;
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  [
    m "setup_s" "s" (median !setup_times);
    m "recon_per_s" "1/s" (float_of_int (verified r) /. r.busy_s);
    m "recon_ms_p50" "ms" (quantile walls 0.5);
    m "recon_ms_p90" "ms" (quantile walls 0.9);
    m "wire_bytes_per_recon" "bytes" (prefix_mean r (fun s -> float_of_int s.wire_bytes));
    m "virtual_ms_p50" "ms" (quantile virt 0.5);
    m "virtual_ms_p90" "ms" (quantile virt 0.9);
    m "verified_frac" "frac" (float_of_int (verified r) /. float_of_int (max 1 n));
    m "peak_heap_mb" "MB" (float_of_int (top_heap_words * (Sys.word_size / 8)) /. 1048576.);
  ]

(* Per-layer metrics, each with the end-to-end metric and workload it is
   expected to move, and each ratio with its base. Per-reconciliation
   values unless the unit says otherwise; "_ms" values are ms of that layer
   per reconciliation of the run, so they add up. *)
type layer_metric = { lm : Harness.metric; moves : string; base : string }

let layer_metrics ~(r : Harness.run) ~(d : Metrics.snapshot) ~wall_s ~cpu_s ~minor_words ~majors
    ~base_rate ~rate ~measured_s =
  let open Harness in
  let n = float_of_int (max 1 (Array.length r.samples)) in
  let cnt name = float_of_int (Metrics.counter_value d name) in
  let per_recon name = cnt name /. n in
  let span_ms name = Span.total_ms name /. n in
  let self_ms name = Span.self_ms name /. n in
  let prefix_sum f = prefix_mean r f *. float_of_int (min r.prefix (Array.length r.samples)) in
  let payload = prefix_sum (fun s -> float_of_int s.payload_bits) in
  let lm name unit_ value moves = { lm = m name unit_ value; moves; base = "" } in
  let ratio ?(unit_ = "ratio") name num den moves =
    { lm = m name unit_ (if den = 0. then 0. else num /. den); moves; base = Printf.sprintf "%.6g / %.6g" num den }
  in
  let bulk = "recon_per_s, recon_ms_p50/p90 on bulk_nested"
  and lossy = "recon_ms_p90, wire_bytes_per_recon, virtual_ms_p50/p90, verified_frac on lossy_unknown_d"
  and payload_moves = "wire_bytes_per_recon on every workload"
  and arq = "wire_bytes_per_recon, virtual_ms_p90 on lossy_unknown_d and server_churn"
  and server_tput = "recon_per_s on server_churn"
  and server_lat = "virtual_ms_p90 on server_churn"
  and runtime = "recon_per_s, peak_heap_mb on all workloads" in
  let hits = float_of_int !cache_hits and misses = float_of_int !cache_misses in
  let root_s = Span.root_ms () /. 1e3 in
  [
    lm "datasets.child_calls" "count/recon" (float_of_int (Span.calls "datasets.child") /. n) bulk;
    lm "datasets.child_ms" "ms/recon" (span_ms "datasets.child") bulk;
    lm "core.self_ms.naive" "ms/recon" (self_ms "core.naive") bulk;
    lm "core.self_ms.iblt-of-iblts" "ms/recon" (self_ms "core.iblt-of-iblts") bulk;
    lm "core.self_ms.cascade" "ms/recon" (self_ms "core.cascade") (bulk ^ "; " ^ lossy);
    lm "core.self_ms.multiround" "ms/recon" (self_ms "core.multiround") (bulk ^ "; " ^ lossy);
    lm "core.self_ms.set-doubling" "ms/recon" (self_ms "core.set-doubling") lossy;
    lm "core.self_ms.set-rateless" "ms/recon" (self_ms "core.set-rateless") lossy;
    ratio "enc_cache.hit_ratio" hits (hits +. misses) bulk;
    lm "enc_cache.misses" "count/recon" (misses /. n) bulk;
    lm "enc_cache.resident_mb" "MB" (float_of_int !cache_peak_bytes /. 1048576.) (bulk ^ ", peak_heap_mb");
    lm "iblt.inserts" "count/recon" (per_recon "iblt.inserts") bulk;
    lm "iblt.decode.peels" "count/recon" (per_recon "iblt.decode.peels") lossy;
    ratio "iblt.decode.success_ratio" (cnt "iblt.decode.success") (cnt "iblt.decode.attempts") lossy;
    lm "iblt.decode.checksum_rejects" "count/recon" (per_recon "iblt.decode.checksum_rejects") lossy;
    lm "rateless.cells_sent" "count/recon" (per_recon "rateless.cells_sent") lossy;
    ratio "rateless.useful_ratio" (cnt "rateless.cells_useful") (cnt "rateless.cells_sent") lossy;
    lm "estimator.queries" "count/recon"
      ((cnt "estimator.l0.queries" +. cnt "estimator.strata.queries") /. n)
      lossy;
    lm "resilient.attempts" "count/recon" (per_recon "resilient.attempts") lossy;
    lm "resilient.salvage_attempts" "count/recon" (per_recon "resilient.salvage_attempts") lossy;
    lm "resilient.direct_fallbacks" "count/recon" (per_recon "resilient.direct_fallbacks") lossy;
    lm "comm.payload_bits" "bits/recon" (prefix_mean r (fun s -> float_of_int s.payload_bits)) payload_moves;
    lm "comm.rounds" "count/recon" (prefix_mean r (fun s -> float_of_int s.rounds)) payload_moves;
    lm "comm.messages" "count/recon" (prefix_mean r (fun s -> float_of_int s.messages)) payload_moves;
    ratio "comm.x_bound" payload (prefix_sum (fun s -> s.bound_bits)) payload_moves;
    lm "transport.transmit_ms" "ms/recon" (span_ms "transport.transmit") "nothing: stays small on bulk_nested";
    ratio "frame.overhead_ratio" (8. *. prefix_sum (fun s -> float_of_int s.wire_bytes)) payload arq;
    lm "arq.retransmits" "count/recon" (per_recon "arq.retransmits") arq;
    lm "arq.timeouts" "count/recon" (per_recon "arq.timeouts") arq;
    lm "arq.acks_sent" "count/recon" (per_recon "arq.acks_sent") arq;
    lm "server.apply_ms" "ms/recon" (span_ms "server.apply") server_tput;
    ratio ~unit_:"us/mutation" "server.apply_us_per_mutation" (Span.total_ms "server.apply" *. 1e3)
      (float_of_int !Server_churn.churn_mutations) server_tput;
    lm "server.shard.refreshes" "count/recon" (per_recon "server.shard.refreshes") server_tput;
    lm "client.on_receive_ms" "ms/recon" (span_ms "client.on_receive") server_lat;
    lm "server.sessions.rejected" "count/recon" (per_recon "server.sessions.rejected") server_lat;
    lm "server.sessions.escalations" "count/recon" (per_recon "server.sessions.escalations") server_lat;
    lm "server.pump.rounds" "count/recon" (per_recon "server.pump.rounds") server_lat;
    lm "server.pump_and_net_ms" "ms/recon" (self_ms "server.run") (server_tput ^ ", " ^ server_lat);
    lm "par.tasks" "count/recon" (per_recon "par.tasks") runtime;
    ratio "cpu_per_wall" cpu_s wall_s runtime;
    lm "gc.minor_mwords" "Mwords/recon" (minor_words /. 1e6 /. n) runtime;
    lm "gc.major_collections" "count/recon" (float_of_int majors /. n) runtime;
    ratio ~unit_:"frac" "fail_frac" (float_of_int (failed r)) n lossy;
    {
      lm = m "trace.overhead_frac" "frac" (1. -. (rate /. base_rate));
      moves = "nothing: the cost of tracing";
      base = Printf.sprintf "1 - %.6g / %.6g traced / untraced recon/s" rate base_rate;
    };
    {
      lm = m "trace.unattributed_frac" "frac" (1. -. (root_s /. measured_s));
      moves = "nothing: bounds what the spans can explain";
      base = Printf.sprintf "1 - %.6g / %.6g s in spans / measured" root_s measured_s;
    };
  ]

let problems (r : Harness.run) = Harness.wrong r @ r.Harness.replay ()

let finish ~(r : Harness.run) metrics problems_found =
  List.iter (fun p -> Printf.eprintf "perfbench: INCORRECT: %s\n" p) problems_found;
  Harness.print_json ~correct:(problems_found = []) ~attempted:(Array.length r.Harness.samples)
    ~failed:(Harness.failed r) metrics

let untraced run ~seed ~seconds =
  let r = run ~seed ~seconds in
  let metrics = e2e_metrics r in
  Harness.print_table "end-to-end (untraced):" metrics;
  finish ~r metrics (problems r)

let traced run ~seed ~seconds =
  let half = seconds /. 2. in
  let base = run ~seed ~seconds:half in
  let base_problems = problems base in
  let base_rate = float_of_int (Harness.verified base) /. base.Harness.busy_s in
  Harness.cache_hits := 0;
  Harness.cache_misses := 0;
  Harness.cache_peak_bytes := 0;
  Server_churn.churn_mutations := 0;
  Span.reset ();
  (* Set-up and forced collections belong to no reconciliation, so they are
     left out of the wall time the spans are compared against. *)
  let excluded () = List.fold_left ( +. ) 0. !Harness.setup_times +. !Harness.forced_gc_s in
  let excluded0 = excluded () and forced0 = !Harness.forced_majors in
  let before = Metrics.snapshot () in
  let gc0 = Gc.quick_stat () and minor0 = Gc.minor_words () and cpu0 = Sys.time () in
  let t0 = Harness.now_s () in
  Span.enabled := true;
  let r = run ~seed ~seconds:half in
  Span.enabled := false;
  let wall_s = Harness.now_s () -. t0 in
  let cpu_s = Sys.time () -. cpu0 and minor_words = Gc.minor_words () -. minor0 in
  let majors =
    (Gc.quick_stat ()).Gc.major_collections - gc0.Gc.major_collections - (!Harness.forced_majors - forced0)
  in
  let d = Metrics.diff ~before ~after:(Metrics.snapshot ()) in
  let measured_s = wall_s -. (excluded () -. excluded0) in
  let rate = float_of_int (Harness.verified r) /. r.Harness.busy_s in
  let lms = layer_metrics ~r ~d ~wall_s ~cpu_s ~minor_words ~majors ~base_rate ~rate ~measured_s in
  Printf.printf "spans (traced phase, %d reconciliations, %.3f s measured):\n" (Array.length r.Harness.samples)
    measured_s;
  List.iter
    (fun (a : Span.acc) ->
      Printf.printf "  %-22s %9d calls %12.3f ms total %12.3f ms self\n" a.Span.name a.Span.calls
        (float_of_int a.Span.total_ns /. 1e6) (float_of_int a.Span.self_ns /. 1e6))
    (Span.all ());
  Printf.printf "layers no workload exercises: field.karatsuba.calls %d, field.newton.reductions %d\n"
    (Metrics.counter_value d "field.karatsuba.calls") (Metrics.counter_value d "field.newton.reductions");
  Printf.printf "per-layer (traced):\n";
  List.iter
    (fun x ->
      Printf.printf "  %-30s %14.6g %-12s moves %s%s\n" x.lm.Harness.name x.lm.Harness.value x.lm.Harness.unit_
        x.moves
        (if x.base = "" then "" else "; base " ^ x.base))
    lms;
  finish ~r (List.map (fun x -> x.lm) lms) (base_problems @ problems r)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 0. and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " bulk_nested | lossy_unknown_d | server_churn");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
    ]
  in
  let usage = "perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match List.assoc_opt !workload workloads with
  | None ->
    Printf.eprintf "perfbench: unknown workload %S\n%s\n" !workload usage;
    exit 2
  | Some _ when !seconds <= 0. || (!trace <> 0 && !trace <> 1) ->
    Printf.eprintf "%s\n" usage;
    exit 2
  | Some run ->
    let seed = Ssr_util.Prng.derive ~seed:(Int64.of_int !seed) ~tag:(Hashtbl.hash !workload) in
    if !trace = 1 then traced run ~seed ~seconds:!seconds else untraced run ~seed ~seconds:!seconds
