(* Command-line driver: generate a synthetic workload, run a reconciliation
   protocol on it, and report correctness plus honest communication costs.

     dune exec bin/reconcile.exe -- sets -n 10000 -d 20 --method cpi
     dune exec bin/reconcile.exe -- sos --children 100 --edits 8 --protocol cascade
     dune exec bin/reconcile.exe -- db --columns 256 --rows 500 --flips 12
     dune exec bin/reconcile.exe -- graph --scheme order -d 2
     dune exec bin/reconcile.exe -- forest -n 400 --sigma 5 -d 3
     dune exec bin/reconcile.exe -- estimate -n 5000 -d 100
     dune exec bin/reconcile.exe -- sos3 --edits 3
     dune exec bin/reconcile.exe -- multiparty -k 5 --drift 10
     dune exec bin/reconcile.exe -- twoway -d 20 *)

module Prng = Ssr_util.Prng
module Iset = Ssr_util.Iset
module Par = Ssr_util.Par
module Comm = Ssr_setrecon.Comm
module Set_recon = Ssr_setrecon.Set_recon
module Cpi = Ssr_setrecon.Cpi_recon
module L0 = Ssr_sketch.L0_estimator
module Strata = Ssr_sketch.Strata_estimator
module Parent = Ssr_core.Parent
module Protocol = Ssr_core.Protocol
module Bindb = Ssr_apps.Bindb
module Gnp = Ssr_graphs.Gnp
module Graph = Ssr_graphs.Graph
module Planted = Ssr_graphs.Planted
module Nsig = Ssr_graphs.Neighbor_degree_sig
module Forest = Ssr_graphs.Forest
module Degree_order = Ssr_graphrecon.Degree_order
module Degree_nbr = Ssr_graphrecon.Degree_nbr
module Forest_recon = Ssr_graphrecon.Forest_recon
module Metrics = Ssr_obs.Metrics
module Trace = Ssr_obs.Trace

open Cmdliner

let seed_term =
  let doc = "Random seed (hex or decimal)." in
  Arg.(value & opt int64 42L & info [ "seed" ] ~doc)

let protocol_term =
  let kinds = [ ("naive", Protocol.Naive); ("iblt-of-iblts", Protocol.Iblt_of_iblts);
                ("cascade", Protocol.Cascade); ("multiround", Protocol.Multiround) ] in
  let doc = "Set-of-sets protocol: naive, iblt-of-iblts, cascade or multiround." in
  Arg.(value & opt (enum kinds) Protocol.Cascade & info [ "protocol" ] ~doc)

(* Wall time of the protocol run proper (workload generation excluded):
   each subcommand calls [start_wall] once its inputs are built, and
   [report] reads the elapsed monotonic time. [start_wall] also snapshots
   the metrics registry so the observability report covers exactly the
   protocol run, not workload generation. *)
let wall_t0 = ref 0L

let metrics_t0 = ref ([] : Metrics.snapshot)

let g_run_domains = Metrics.gauge "proto.run.domains"

let start_wall () =
  metrics_t0 := Metrics.snapshot ();
  (* Inside the run window, after the baseline snapshot, so the metrics
     diff reports the pool size the protocol actually ran with. *)
  Metrics.set g_run_domains (Par.available ());
  wall_t0 := Monotonic_clock.now ()

let wall_ms () = Int64.to_float (Int64.sub (Monotonic_clock.now ()) !wall_t0) /. 1e6

(* ---- observability surface (--metrics, --trace-out) ---- *)

let obs_metrics : [ `Json | `Table ] option ref = ref None
let obs_trace_out : string option ref = ref None

type run_report = {
  r_label : string;
  r_ok : bool;
  r_stats : Comm.stats option;
  r_metrics : Metrics.snapshot;
  r_true_d : int option;
  r_wall_ms : float;
}

let run_reports = ref ([] : run_report list) (* newest first *)

let push_report ?true_d ?stats ~label ~ok () =
  run_reports :=
    {
      r_label = label;
      r_ok = ok;
      r_stats = stats;
      r_metrics = Metrics.diff ~before:!metrics_t0 ~after:(Metrics.snapshot ());
      r_true_d = true_d;
      r_wall_ms = wall_ms ();
    }
    :: !run_reports

(* Estimator accuracy, derivable when the harness knows the true difference:
   mean of the estimates the run recorded vs. the known truth. *)
let estimator_summary r =
  match r.r_true_d with
  | None -> None
  | Some truth ->
    let mean_of name =
      match Metrics.find r.r_metrics name with
      | Some (Metrics.Dist { count; sum; _ }) when count > 0 ->
        Some (float_of_int sum /. float_of_int count)
      | _ -> None
    in
    (match (mean_of "estimator.l0.estimate", mean_of "estimator.strata.estimate") with
    | None, None -> None
    | l0, strata -> Some (truth, l0, strata))

let json_of_report r =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "{\"label\": \"%s\", \"ok\": %b, \"wall_ms\": %.3f" (Metrics.json_escape r.r_label)
       r.r_ok r.r_wall_ms);
  (match r.r_true_d with
  | Some d -> Buffer.add_string b (Printf.sprintf ", \"true_d\": %d" d)
  | None -> ());
  (match estimator_summary r with
  | Some (truth, l0, strata) ->
    let field name = function
      | Some est ->
        Buffer.add_string b
          (Printf.sprintf ", \"%s\": {\"estimate_mean\": %.3f, \"abs_error\": %.3f}" name est
             (Float.abs (est -. float_of_int truth)))
      | None -> ()
    in
    field "estimator_l0" l0;
    field "estimator_strata" strata
  | None -> ());
  (match r.r_stats with
  | Some st ->
    Buffer.add_string b
      (Printf.sprintf ", \"rounds\": %d, \"bits_total\": %d, \"bits_a_to_b\": %d, \"bits_b_to_a\": %d"
         st.Comm.rounds st.Comm.bits_total st.Comm.bits_a_to_b st.Comm.bits_b_to_a);
    Buffer.add_string b ", \"per_round\": [";
    List.iteri
      (fun i (round, ab, ba) ->
        if i > 0 then Buffer.add_string b ", ";
        Buffer.add_string b
          (Printf.sprintf "{\"round\": %d, \"a_to_b_bits\": %d, \"b_to_a_bits\": %d}" round ab ba))
      (Comm.per_round_bits st);
    Buffer.add_string b "]"
  | None -> ());
  Buffer.add_string b (Printf.sprintf ", \"metrics\": %s}" (Metrics.to_json r.r_metrics));
  Buffer.contents b

let print_report_table r =
  Printf.printf "--- %s (%s, %.2f ms) ---\n" r.r_label (if r.r_ok then "ok" else "failed") r.r_wall_ms;
  (match r.r_stats with
  | Some st ->
    List.iter
      (fun (round, ab, ba) -> Printf.printf "round %-3d  A->B %8d bits  B->A %8d bits\n" round ab ba)
      (Comm.per_round_bits st)
  | None -> ());
  (match estimator_summary r with
  | Some (truth, l0, strata) ->
    let line name = function
      | Some est -> Printf.printf "%s: estimate %.1f vs true %d\n" name est truth
      | None -> ()
    in
    line "estimator.l0" l0;
    line "estimator.strata" strata
  | None -> ());
  Format.printf "%a@." Metrics.pp r.r_metrics

(* Runs after the subcommand body: print the collected observability reports
   in the requested format and flush the trace. The options term below is
   listed leftmost in every subcommand, so its side effects (setting the two
   refs) happen before the run term executes. *)
let finish () code =
  (match !obs_metrics with
  | None -> ()
  | Some `Json ->
    List.iter (fun r -> print_endline (json_of_report r)) (List.rev !run_reports)
  | Some `Table -> List.iter print_report_table (List.rev !run_reports));
  (match !obs_trace_out with
  | None -> ()
  | Some path ->
    Trace.write_file path;
    Printf.eprintf "trace: %d events written to %s (%d overwritten)\n"
      (List.length (Trace.events ()))
      path (Trace.dropped ()));
  code

let obs_term =
  let metrics =
    Arg.(value
         & opt (some (enum [ ("json", `Json); ("table", `Table) ])) None
         & info [ "metrics" ]
             ~doc:"Emit an observability report after the run: per-round payload bits per \
                   direction, IBLT peel statistics, estimator accuracy and transport counters, \
                   as $(b,json) (one object per line) or a $(b,table).")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ]
             ~doc:"Write the structured event trace (virtual-time-stamped when running over the \
                   simulated network) to this file as JSON.")
  in
  let domains =
    Arg.(value & opt (some int) None
         & info [ "domains" ]
             ~doc:"Size of the fork-join domain pool: $(b,1) serial (default), $(b,N) that many \
                   OCaml domains, $(b,0) auto-size from the machine. Protocol transcripts are \
                   byte-identical at any size; only wall time changes. Overrides the \
                   $(b,SSR_DOMAINS) environment variable.")
  in
  Term.(
    const (fun m t d ->
        obs_metrics := m;
        obs_trace_out := t;
        Option.iter Par.set_domains d)
    $ metrics $ trace_out $ domains)

let with_obs run_term = Term.(const finish $ obs_term $ run_term)

let report ?true_d ~label ~ok stats =
  push_report ?true_d ~stats ~label ~ok ();
  Printf.printf "%s: %s  %s  wall=%.2f ms\n" label
    (if ok then "RECOVERED" else "FAILED")
    (Comm.show_stats stats) (wall_ms ());
  if ok then 0 else 1

(* ---- sets ---- *)

let run_sets seed n d method_ =
  let rng = Prng.create ~seed in
  let universe = 1 lsl 40 in
  let alice = Iset.random_subset rng ~universe ~size:n in
  let bob =
    Iset.apply_diff alice
      ~add:(Iset.random_subset rng ~universe ~size:(d / 2))
      ~del:
        (let arr = Iset.to_array alice in
         Iset.of_list (List.init (d - (d / 2)) (fun i -> arr.(i * 7 mod max 1 (Array.length arr)))))
  in
  let dd = Iset.sym_diff_size alice bob in
  Printf.printf "sets: |A|=%d |B|=%d  true diff=%d\n" (Iset.cardinal alice) (Iset.cardinal bob) dd;
  start_wall ();
  match method_ with
  | `Iblt -> (
    match Set_recon.reconcile_known_d ~seed ~d:dd ~alice ~bob () with
    | Ok o ->
      report ~true_d:dd ~label:"iblt" ~ok:(Iset.equal o.Set_recon.recovered alice) o.Set_recon.stats
    | Error (`Decode_failure st) -> report ~true_d:dd ~label:"iblt" ~ok:false st)
  | `Cpi -> (
    match Cpi.reconcile_known_d ~seed ~d:dd ~alice ~bob () with
    | Ok o -> report ~true_d:dd ~label:"cpi" ~ok:(Iset.equal o.Cpi.recovered alice) o.Cpi.stats
    | Error (`Bound_too_small st) -> report ~true_d:dd ~label:"cpi" ~ok:false st)
  | `Unknown -> (
    match Set_recon.reconcile_unknown_d ~seed ~alice ~bob () with
    | Ok o ->
      report ~true_d:dd ~label:"unknown-d" ~ok:(Iset.equal o.Set_recon.recovered alice)
        o.Set_recon.stats
    | Error (`Decode_failure st) -> report ~true_d:dd ~label:"unknown-d" ~ok:false st)

let sets_cmd =
  let n = Arg.(value & opt int 10_000 & info [ "n" ] ~doc:"Set size.") in
  let d = Arg.(value & opt int 20 & info [ "d" ] ~doc:"Number of differences.") in
  let m =
    Arg.(value
         & opt (enum [ ("iblt", `Iblt); ("cpi", `Cpi); ("unknown", `Unknown) ]) `Iblt
         & info [ "method" ] ~doc:"iblt, cpi or unknown.")
  in
  Cmd.v (Cmd.info "sets" ~doc:"Plain set reconciliation (paper section 2)")
    (with_obs Term.(const run_sets $ seed_term $ n $ d $ m))

(* ---- sos ---- *)

let run_sos seed children child_size universe edits unknown kind =
  let rng = Prng.create ~seed in
  let bob = Parent.random rng ~universe ~children ~child_size in
  let alice, _ = Parent.perturb rng ~universe ~edits bob in
  let d = max edits (Parent.relaxed_matching_cost alice bob) in
  let h = Parent.max_child_size alice + edits in
  Printf.printf "sos: s=%d children, n=%d elements, %d edits (d bound %d), protocol %s\n" children
    (Parent.total_elements bob) edits d (Protocol.name kind);
  start_wall ();
  let result =
    if unknown then Protocol.reconcile_unknown kind ~seed ~u:universe ~h ~alice ~bob ()
    else Protocol.reconcile_known kind ~seed ~d ~u:universe ~h ~alice ~bob ()
  in
  match result with
  | Ok o ->
    report ~true_d:d ~label:(Protocol.name kind) ~ok:(Parent.equal o.Protocol.recovered alice)
      o.Protocol.stats
  | Error (`Decode_failure st) -> report ~true_d:d ~label:(Protocol.name kind) ~ok:false st

let sos_cmd =
  let children = Arg.(value & opt int 100 & info [ "children" ] ~doc:"Child sets per parent (s).") in
  let child_size = Arg.(value & opt int 50 & info [ "child-size" ] ~doc:"Elements per child.") in
  let universe = Arg.(value & opt int (1 lsl 24) & info [ "universe" ] ~doc:"Element universe size (u).") in
  let edits = Arg.(value & opt int 8 & info [ "edits" ] ~doc:"Element edits between the parents (d).") in
  let unknown = Arg.(value & flag & info [ "unknown" ] ~doc:"Use the unknown-d variant.") in
  Cmd.v (Cmd.info "sos" ~doc:"Set-of-sets reconciliation (paper section 3)")
    (with_obs
       Term.(const run_sos $ seed_term $ children $ child_size $ universe $ edits $ unknown
             $ protocol_term))

(* ---- dataset ---- *)

(* Streaming runs over the seeded offline workload generators: the parent
   sets are never materialized (children are re-derived from seed +
   position on every walk), so this scales to millions of elements in
   bounded memory. The reported delta is the O(d) child difference. *)
let run_dataset seed family children edits kind =
  let module Datasets = Ssr_apps.Datasets in
  let bob_inst =
    match family with
    | `Graph -> Datasets.graph ~seed ~nodes:children ~avg_degree:4
    | `Zipf ->
      Datasets.zipf ~seed ~parents:children ~universe:(1 lsl 30) ~max_child_size:24 ~alpha:1.0
    | `Shingles -> Datasets.shingle_corpus ~seed ~docs:children ~shingles_per_doc:9 ~overlap:0.5
  in
  let alice_inst = Datasets.pair ~seed:(Prng.derive ~seed ~tag:0xED1) ~edits bob_inst in
  let alice = alice_inst.Datasets.stream and bob = bob_inst.Datasets.stream in
  let u = alice_inst.Datasets.universe and h = alice_inst.Datasets.max_child_size in
  let d = 2 * edits in
  Printf.printf "dataset: s=%d children, n=%d elements, %d edits (d bound %d), protocol %s\n"
    bob.Parent.length
    (Parent.stream_total_elements bob)
    edits d (Protocol.name kind);
  let comm = Comm.create () in
  start_wall ();
  match Protocol.run_known_stream kind ~comm ~seed ~enc_seed:None ~d ~u ~h ~alice ~bob with
  | Ok { Protocol.delta; stats } ->
    Printf.printf "delta: %d alice-only / %d bob-only children\n"
      (List.length delta.Parent.a_only)
      (List.length delta.Parent.b_only);
    report ~true_d:d ~label:(Protocol.name kind)
      ~ok:(List.length delta.Parent.a_only = List.length delta.Parent.b_only)
      stats
  | Error `Decode_failure ->
    report ~true_d:d ~label:(Protocol.name kind) ~ok:false (Comm.stats comm)

let dataset_cmd =
  let family =
    Arg.(value
         & opt (enum [ ("graph", `Graph); ("zipf", `Zipf); ("shingles", `Shingles) ]) `Zipf
         & info [ "family" ]
             ~doc:"Workload generator: $(b,graph) (edge-list neighbourhoods), $(b,zipf) \
                   (skewed child sizes) or $(b,shingles) (document shingle corpus).")
  in
  let children =
    Arg.(value & opt int 100_000
         & info [ "children" ] ~doc:"Child sets (graph nodes / zipf parents / documents).")
  in
  let edits =
    Arg.(value & opt int 16 & info [ "edits" ] ~doc:"Element edits between the parents.")
  in
  Cmd.v
    (Cmd.info "dataset"
       ~doc:"Streaming reconciliation over seeded million-element workload generators")
    (with_obs Term.(const run_dataset $ seed_term $ family $ children $ edits $ protocol_term))

(* ---- db ---- *)

let run_db seed columns rows flips kind =
  let rng = Prng.create ~seed in
  let bob =
    Bindb.create ~columns
      ~rows:(List.init rows (fun _ -> Array.init columns (fun _ -> Prng.bernoulli rng 0.5)))
  in
  let alice = Bindb.flip_random_bits rng bob flips in
  Printf.printf "db: %d x %d, %d bit flips, protocol %s\n" rows columns flips (Protocol.name kind);
  start_wall ();
  match Bindb.reconcile kind ~seed ~d:(2 * flips) ~alice ~bob () with
  | Ok (recovered, stats) -> report ~label:"db" ~ok:(Bindb.equal recovered alice) stats
  | Error (`Decode_failure st) -> report ~label:"db" ~ok:false st

let db_cmd =
  let columns = Arg.(value & opt int 128 & info [ "columns" ] ~doc:"Labeled columns (u).") in
  let rows = Arg.(value & opt int 400 & info [ "rows" ] ~doc:"Unlabeled rows (s).") in
  let flips = Arg.(value & opt int 10 & info [ "flips" ] ~doc:"Flipped bits (d).") in
  Cmd.v (Cmd.info "db" ~doc:"Binary relational database reconciliation (paper section 1)")
    (with_obs Term.(const run_db $ seed_term $ columns $ rows $ flips $ protocol_term))

(* ---- graph ---- *)

let run_graph seed scheme n d =
  let rng = Prng.create ~seed in
  match scheme with
  | `Order -> (
    let h = 48 + (16 * d) in
    let base = Planted.separated_instance rng ~n:(max n (10 * h)) ~h ~d () in
    let alice, bob = Planted.perturbed_pair rng ~base ~d in
    Printf.printf "graph(order): planted n=%d h=%d d=%d\n" (Graph.n base) h d;
    start_wall ();
    match Degree_order.reconcile ~seed ~d ~h ~alice ~bob () with
    | Ok o ->
      let ok =
        match Degree_order.labeled_view alice ~h with
        | Some la -> Graph.equal o.Degree_order.recovered la
        | None -> false
      in
      report ~label:"degree-order" ~ok o.Degree_order.stats
    | Error (`Not_separated st) | Error (`Decode_failure st) -> report ~label:"degree-order" ~ok:false st)
  | `Nbr -> (
    let p = 0.3 in
    let alice, bob = Gnp.perturbed_pair rng ~n ~p ~d in
    let cap = Nsig.default_cap ~n ~p in
    Printf.printf "graph(nbr): G(%d, %.2f) d=%d cap=%d\n" n p d cap;
    start_wall ();
    match Degree_nbr.reconcile ~seed ~d ~cap ~alice ~bob () with
    | Ok o ->
      let ok =
        match Degree_nbr.labeled_view alice ~cap with
        | Some la -> Graph.equal o.Degree_nbr.recovered la
        | None -> false
      in
      report ~label:"degree-nbr" ~ok o.Degree_nbr.stats
    | Error (`Not_disjoint st) | Error (`Decode_failure st) -> report ~label:"degree-nbr" ~ok:false st)

let graph_cmd =
  let scheme =
    Arg.(value
         & opt (enum [ ("order", `Order); ("nbr", `Nbr) ]) `Order
         & info [ "scheme" ] ~doc:"order (section 5.1) or nbr (section 5.2).")
  in
  let n = Arg.(value & opt int 480 & info [ "n" ] ~doc:"Vertices.") in
  let d = Arg.(value & opt int 2 & info [ "d" ] ~doc:"Edge perturbations.") in
  Cmd.v (Cmd.info "graph" ~doc:"Random graph reconciliation (paper section 5)")
    (with_obs Term.(const run_graph $ seed_term $ scheme $ n $ d))

(* ---- forest ---- *)

let run_forest seed n sigma d =
  let rng = Prng.create ~seed in
  let bob = Forest.random rng ~n ~max_depth:sigma () in
  let alice = Forest.random_updates rng ~max_depth:sigma bob d in
  Printf.printf "forest: n=%d sigma<=%d d=%d\n" n sigma d;
  start_wall ();
  match Forest_recon.reconcile_unknown ~seed ~alice ~bob () with
  | Ok o -> report ~label:"forest" ~ok:(Forest.isomorphic o.Forest_recon.recovered alice) o.Forest_recon.stats
  | Error (`Decode_failure st) -> report ~label:"forest" ~ok:false st

let forest_cmd =
  let n = Arg.(value & opt int 400 & info [ "n" ] ~doc:"Vertices.") in
  let sigma = Arg.(value & opt int 5 & info [ "sigma" ] ~doc:"Depth bound.") in
  let d = Arg.(value & opt int 3 & info [ "d" ] ~doc:"Edge updates.") in
  Cmd.v (Cmd.info "forest" ~doc:"Rooted forest reconciliation (paper section 6)")
    (with_obs Term.(const run_forest $ seed_term $ n $ sigma $ d))

(* ---- sos3 ---- *)

let run_sos3 seed parents children child_size edits =
  let module S3 = Ssr_core.Sos3 in
  let rng = Prng.create ~seed in
  let mk () = Parent.random rng ~universe:100_000 ~children ~child_size in
  let bob = S3.of_parents (List.init parents (fun _ -> mk ())) in
  let alice = S3.perturb rng ~universe:100_000 ~edits bob in
  let d3, d2, d1 = S3.diff_bounds alice bob in
  Printf.printf "sos3: %d parents x %d children x %d elements; %d edits (d3=%d d2=%d d=%d)\n"
    parents children child_size edits d3 d2 d1;
  start_wall ();
  match
    S3.reconcile_known ~seed ~d:(max 1 d1) ~d2:(max 1 d2) ~d3:(max 1 d3) ~alice ~bob ()
  with
  | Ok o -> report ~label:"sos3" ~ok:(S3.equal o.S3.recovered alice) o.S3.stats
  | Error (`Decode_failure st) -> report ~label:"sos3" ~ok:false st

let sos3_cmd =
  let parents = Arg.(value & opt int 8 & info [ "parents" ] ~doc:"Parent sets in the collection.") in
  let children = Arg.(value & opt int 10 & info [ "children" ] ~doc:"Child sets per parent.") in
  let child_size = Arg.(value & opt int 12 & info [ "child-size" ] ~doc:"Elements per child.") in
  let edits = Arg.(value & opt int 3 & info [ "edits" ] ~doc:"Element edits.") in
  Cmd.v (Cmd.info "sos3" ~doc:"Sets of sets of sets (paper section 3.2's future work)")
    (with_obs Term.(const run_sos3 $ seed_term $ parents $ children $ child_size $ edits))

(* ---- multiparty ---- *)

let run_multiparty seed k n drift =
  let module MP = Ssr_setrecon.Multi_party in
  let rng = Prng.create ~seed in
  let core = Iset.random_subset rng ~universe:(1 lsl 40) ~size:n in
  let parties =
    Array.init k (fun _ -> Iset.union core (Iset.random_subset rng ~universe:(1 lsl 41) ~size:drift))
  in
  let d = max 1 (MP.pairwise_bound parties) in
  Printf.printf "multiparty: %d parties, %d-element core, max pairwise diff %d\n" k n d;
  start_wall ();
  match MP.reconcile_broadcast ~seed ~d ~parties () with
  | Ok o ->
    let union = Array.fold_left Iset.union Iset.empty parties in
    report ~label:"multiparty" ~ok:(Array.for_all (Iset.equal union) o.MP.per_party) o.MP.stats
  | Error (`Decode_failure (_, st)) -> report ~label:"multiparty" ~ok:false st

let multiparty_cmd =
  let k = Arg.(value & opt int 5 & info [ "k" ] ~doc:"Number of parties.") in
  let n = Arg.(value & opt int 5_000 & info [ "n" ] ~doc:"Core set size.") in
  let drift = Arg.(value & opt int 10 & info [ "drift" ] ~doc:"Unique elements per party.") in
  Cmd.v (Cmd.info "multiparty" ~doc:"Multi-party broadcast reconciliation (extension)")
    (with_obs Term.(const run_multiparty $ seed_term $ k $ n $ drift))

(* ---- twoway ---- *)

let run_twoway seed n d =
  let module TW = Ssr_setrecon.Two_way in
  let rng = Prng.create ~seed in
  let alice = Iset.random_subset rng ~universe:(1 lsl 40) ~size:n in
  let bob = Iset.union alice (Iset.random_subset rng ~universe:(1 lsl 41) ~size:d) in
  let dd = max 1 (Iset.sym_diff_size alice bob) in
  Printf.printf "twoway: |A|=%d |B|=%d diff=%d\n" (Iset.cardinal alice) (Iset.cardinal bob) dd;
  start_wall ();
  match TW.reconcile_known_d ~seed ~d:dd ~alice ~bob () with
  | Ok o -> report ~label:"twoway" ~ok:(Iset.equal o.TW.union (Iset.union alice bob)) o.TW.stats
  | Error (`Decode_failure st) -> report ~label:"twoway" ~ok:false st

let twoway_cmd =
  let n = Arg.(value & opt int 10_000 & info [ "n" ] ~doc:"Set size.") in
  let d = Arg.(value & opt int 20 & info [ "d" ] ~doc:"Difference size.") in
  Cmd.v (Cmd.info "twoway" ~doc:"Mutual (two-way) set reconciliation (extension)")
    (with_obs Term.(const run_twoway $ seed_term $ n $ d))

(* ---- faulty ---- *)

(* --latency=BASE[:JITTER] in milliseconds (floats accepted). *)
let parse_latency s =
  match String.split_on_char ':' s with
  | [ base ] -> Option.map (fun b -> (b, 0.)) (float_of_string_opt base)
  | [ base; jitter ] -> (
    match (float_of_string_opt base, float_of_string_opt jitter) with
    | Some b, Some j -> Some (b, j)
    | _ -> None)
  | _ -> None

(* --partition=START:STOP[:DIR] in milliseconds; DIR one of ab, ba, both. *)
let parse_partition s =
  let dir_of = function
    | "ab" -> Some `A_to_b
    | "ba" -> Some `B_to_a
    | "both" -> Some `Both
    | _ -> None
  in
  match String.split_on_char ':' s with
  | [ a; b ] -> (
    match (float_of_string_opt a, float_of_string_opt b) with
    | Some a, Some b -> Some (a, b, `Both)
    | _ -> None)
  | [ a; b; d ] -> (
    match (float_of_string_opt a, float_of_string_opt b, dir_of d) with
    | Some a, Some b, Some d -> Some (a, b, d)
    | _ -> None)
  | _ -> None

let us_of_ms ms = int_of_float (ms *. 1000.)

(* The shortest [%g] form (at least 6 digits) of [f] that parses back to
   [f] exactly, so a printed flag value replays the same run. *)
let exact_float f =
  let rec go p =
    let s = Printf.sprintf "%.*g" p f in
    if p >= 17 || float_of_string s = f then s else go (p + 1)
  in
  go 6

(* A fault probability: a float in [0, 1]. A value outside, NaN included,
   is a usage error naming its flag, not an exception from the transport
   layer's own check. *)
let rate_conv =
  Arg.conv
    ( (fun s ->
        match float_of_string_opt s with
        | Some r when r >= 0. && r <= 1. -> Ok r
        | _ -> Error (`Msg (Printf.sprintf "expected a probability in [0, 1], got %S" s))),
      Format.pp_print_float )

let run_faulty seed fault_seed drop corrupt truncate duplicate max_attempts rateless runs target
    kind unframed latency reorder partition deadline_ms =
  let module Channel = Ssr_transport.Channel in
  let module Network = Ssr_transport.Network in
  let module Clock = Ssr_transport.Clock in
  let module Arq = Ssr_transport.Arq in
  let module R = Ssr_transport.Resilient in
  let networked = latency <> None || reorder <> None || partition <> None || deadline_ms <> None in
  let lat_ms, jit_ms = match latency with Some s -> s | None -> (0., 0.) in
  let reorder_rate = Option.value reorder ~default:0. in
  let part_spec = Option.map (fun (a, b, d) -> (us_of_ms a, us_of_ms b, d)) partition in
  let run_deadline_us = Option.map us_of_ms deadline_ms in
  (* Replayable configuration in pasteable --flag=value form: every flag
     that shapes a run prints back exactly as it must be passed to
     reproduce it. *)
  let replay_suffix =
    String.concat ""
      [
        (match target with
        | `Set -> " --target=set"
        | `Sos -> " --target=sos --protocol=" ^ Protocol.name kind);
        Printf.sprintf " --drop-rate=%s --corrupt-rate=%s --truncate-rate=%s --duplicate-rate=%s"
          (exact_float drop) (exact_float corrupt) (exact_float truncate) (exact_float duplicate);
        Printf.sprintf " --max-attempts=%d" max_attempts;
        (if rateless then " --rateless" else "");
        (if unframed then " --unframed" else "");
        (if not networked then ""
         else
           Printf.sprintf " --latency=%s:%s --reorder=%s%s%s" (exact_float lat_ms)
             (exact_float jit_ms) (exact_float reorder_rate)
             (match partition with
             | Some (a, b, d) ->
               Printf.sprintf " --partition=%s:%s:%s" (exact_float a) (exact_float b)
                 (match d with `A_to_b -> "ab" | `B_to_a -> "ba" | `Both -> "both")
             | None -> "")
             (match deadline_ms with
             | Some d -> " --deadline-ms=" ^ exact_float d
             | None -> ""));
      ]
  in
  let ok = ref 0 and degraded = ref 0 and tfail = ref 0 and timedout = ref 0 and silent = ref 0 in
  let faults = ref 0 and retransmits = ref 0 and wire = ref 0 in
  let strategy = if rateless then R.Rateless else R.Doubling in
  start_wall ();
  for r = 0 to runs - 1 do
    (* Run 0 uses the given seeds verbatim, so a failure printed below can be
       replayed exactly with [--runs 1] and the printed seed pair. *)
    let wseed = if r = 0 then seed else Prng.derive ~seed ~tag:r in
    let cseed = if r = 0 then fault_seed else Prng.derive ~seed:fault_seed ~tag:r in
    let link =
      if networked then begin
        let clock = Clock.create () in
        let partitions =
          match part_spec with
          | Some (from_us, until_us, blocks) -> [ { Network.from_us; until_us; blocks } ]
          | None -> []
        in
        let network =
          Network.create ~clock
            (Network.config_with ~drop ~corrupt ~truncate ~duplicate
               ~latency_us:(us_of_ms lat_ms) ~jitter_us:(us_of_ms jit_ms) ~reorder:reorder_rate
               ~partitions ~seed:cseed ())
        in
        R.over_network (Arq.create ~clock ~network ~seed:cseed ())
      end
      else
        R.over_channel ~framed:(not unframed)
          (Channel.create (Channel.config_with ~drop ~corrupt ~truncate ~duplicate ~seed:cseed ()))
    in
    let rep, verdict =
      match target with
      | `Set -> (
        let rng = Prng.create ~seed:wseed in
        let universe = 1 lsl 30 in
        let bob = Iset.random_subset rng ~universe ~size:400 in
        let del =
          let arr = Iset.to_array bob in
          Iset.of_list (List.init 5 (fun i -> arr.(i * 13 mod Array.length arr)))
        in
        let alice = Iset.apply_diff bob ~add:(Iset.random_subset rng ~universe ~size:5) ~del in
        match
          R.reconcile_set ~link ~seed:wseed ~strategy ~max_attempts ?run_deadline_us ~alice ~bob ()
        with
        | Ok (recovered, rep) -> (rep, `Verdict (Iset.equal recovered alice))
        | Error (`Transport_failure rep) -> (rep, `Failed)
        | Error (`Deadline_exceeded rep) -> (rep, `Timeout))
      | `Sos -> (
        let rng = Prng.create ~seed:wseed in
        let universe = 1 lsl 20 in
        let bob = Parent.random rng ~universe ~children:12 ~child_size:10 in
        let alice, _ = Parent.perturb rng ~universe ~edits:4 bob in
        let d = max 4 (Parent.relaxed_matching_cost alice bob) in
        let h = Parent.max_child_size alice + 4 in
        match
          R.reconcile_sos ~link ~kind ~seed:wseed ~u:universe ~h ~initial_d:d ~max_attempts
            ?run_deadline_us ~alice ~bob ()
        with
        | Ok (recovered, rep) -> (rep, `Verdict (Parent.equal recovered alice))
        | Error (`Transport_failure rep) -> (rep, `Failed)
        | Error (`Deadline_exceeded rep) -> (rep, `Timeout))
    in
    faults := !faults + List.length rep.R.faults;
    wire := !wire + rep.R.wire_bytes;
    (match rep.R.timing with
    | Some t -> retransmits := !retransmits + t.R.retransmissions
    | None -> ());
    match verdict with
    | `Verdict true ->
      incr ok;
      if rep.R.degraded then incr degraded
    | `Verdict false ->
      incr silent;
      Printf.printf
        "SILENT CORRUPTION at run %d: replay with --seed=%Ld --fault-seed=%Ld%s --runs 1\n" r wseed
        cseed replay_suffix
    | `Failed ->
      incr tfail;
      Printf.printf "typed transport failure at run %d (replay: --seed=%Ld --fault-seed=%Ld%s --runs 1)\n"
        r wseed cseed replay_suffix
    | `Timeout ->
      incr timedout;
      Printf.printf "deadline exceeded at run %d (replay: --seed=%Ld --fault-seed=%Ld%s --runs 1)\n"
        r wseed cseed replay_suffix
  done;
  Printf.printf "faulty %s%s: %d runs  drop=%.3f corrupt=%.3f truncate=%.3f duplicate=%.3f (%s)\n"
    (match target with `Set -> "set" | `Sos -> Protocol.name kind)
    (if rateless then " [rateless]" else "")
    runs drop corrupt truncate duplicate
    (if networked then
       Printf.sprintf "network: latency %g+-%g ms, reorder %g%s" lat_ms jit_ms reorder_rate
         (match deadline_ms with Some d -> Printf.sprintf ", deadline %g ms" d | None -> "")
     else if unframed then "raw"
     else "framed");
  Printf.printf
    "  recovered=%d (degraded=%d)  typed-failures=%d  deadline-exceeded=%d  faults-injected=%d  retransmissions=%d  wire-bytes=%d  silent-corruptions=%d  wall=%.1f ms\n"
    !ok !degraded !tfail !timedout !faults !retransmits !wire !silent (wall_ms ());
  push_report ~label:"faulty" ~ok:(!silent = 0) ();
  if !silent = 0 then begin
    print_endline "  invariant held: correct result or clean typed failure, never silent corruption";
    0
  end
  else 2

let faulty_cmd =
  let fault_seed =
    Arg.(value & opt int64 7L
         & info [ "fault-seed" ]
             ~doc:"Seed of the channel's fault PRNG; reusing a printed seed replays the identical fault sequence.")
  in
  let drop =
    Arg.(value & opt rate_conv 0.05 & info [ "drop-rate" ] ~doc:"Per-message drop probability.")
  in
  let corrupt =
    Arg.(value & opt rate_conv 0.05
         & info [ "corrupt-rate" ] ~doc:"Per-message single-bit corruption probability.")
  in
  let truncate =
    Arg.(value & opt rate_conv 0.0 & info [ "truncate-rate" ] ~doc:"Per-message truncation probability.")
  in
  let duplicate =
    Arg.(value & opt rate_conv 0.0
         & info [ "duplicate-rate" ] ~doc:"Per-message duplication probability.")
  in
  let max_attempts =
    Arg.(value & opt int 5
         & info [ "max-attempts" ]
             ~doc:"Reconciliation attempts before degrading to direct transfer (and direct attempts after).")
  in
  let rateless =
    Arg.(value & flag
         & info [ "rateless" ]
             ~doc:"Use the rateless coded-cell stream as the ladder's first rung instead of \
                   doubling IBLT attempts: no difference bound to guess, forward progress under \
                   loss without retransmitting cells (plain-set target only).")
  in
  let runs =
    Arg.(value & opt int 100
         & info [ "runs" ] ~doc:"Independent runs, each with a fresh workload and fault stream.")
  in
  let target =
    Arg.(value & opt (enum [ ("set", `Set); ("sos", `Sos) ]) `Sos
         & info [ "target" ] ~doc:"Reconcile plain sets or sets of sets.")
  in
  let unframed =
    Arg.(value & flag
         & info [ "unframed" ]
             ~doc:"Skip CRC framing so damaged bytes reach the protocol parsers directly.")
  in
  let latency_conv =
    Arg.conv
      ( (fun s ->
          match parse_latency s with
          | Some ((b, j) as v) when b >= 0. && j >= 0. -> Ok v
          | _ -> Error (`Msg "expected BASE or BASE:JITTER in non-negative milliseconds")),
        fun fmt (b, j) -> Format.fprintf fmt "%g:%g" b j )
  in
  let latency =
    Arg.(value & opt (some latency_conv) None
         & info [ "latency" ]
             ~doc:"Run over the simulated network with this one-way latency, as BASE[:JITTER] \
                   milliseconds (seeded uniform jitter).")
  in
  let reorder =
    Arg.(value & opt (some rate_conv) None
         & info [ "reorder" ]
             ~doc:"Simulated network: per-copy probability of an extra hold-back delay that \
                   reorders it behind later traffic.")
  in
  let partition_conv =
    Arg.conv
      ( (fun s ->
          match parse_partition s with
          | Some v -> Ok v
          | None -> Error (`Msg "expected START:STOP[:ab|ba|both] in milliseconds")),
        fun fmt (a, b, d) ->
          Format.fprintf fmt "%g:%g:%s" a b
            (match d with `A_to_b -> "ab" | `B_to_a -> "ba" | `Both -> "both") )
  in
  let partition =
    Arg.(value & opt (some partition_conv) None
         & info [ "partition" ]
             ~doc:"Simulated network: a window START:STOP[:DIR] (milliseconds of virtual time) \
                   during which the given direction(s) silently drop everything.")
  in
  let deadline_ms =
    Arg.(value & opt (some float) None
         & info [ "deadline-ms" ]
             ~doc:"Whole-run virtual-time deadline in milliseconds; exceeding it is a typed \
                   deadline failure, never a hang.")
  in
  Cmd.v
    (Cmd.info "faulty"
       ~doc:"Reconciliation over a faulty channel or simulated network (self-healing transport \
             driver). Any of --latency, --reorder, --partition, --deadline-ms selects the \
             virtual-time network simulator with ARQ.")
    (with_obs
       Term.(const run_faulty $ seed_term $ fault_seed $ drop $ corrupt $ truncate $ duplicate
             $ max_attempts $ rateless $ runs $ target $ protocol_term
             $ unframed $ latency $ reorder $ partition $ deadline_ms))

(* ---- estimate ---- *)

let run_estimate seed n d =
  let rng = Prng.create ~seed in
  let universe = 1 lsl 40 in
  let alice = Iset.random_subset rng ~universe ~size:n in
  let extra = Iset.random_subset rng ~universe ~size:d in
  let bob = Iset.union alice extra in
  let true_d = Iset.sym_diff_size alice bob in
  let l0 = L0.create ~seed () in
  L0.update_all l0 L0.S1 (Iset.to_array alice);
  L0.update_all l0 L0.S2 (Iset.to_array bob);
  let sa = Strata.create ~seed () and sb = Strata.create ~seed () in
  Strata.add_all sa (Iset.to_array alice);
  Strata.add_all sb (Iset.to_array bob);
  start_wall ();
  let l0_est = L0.query l0 in
  let strata_est = Strata.estimate ~local:sa ~remote:sb in
  L0.record_accuracy ~estimate:l0_est ~truth:true_d;
  Strata.record_accuracy ~estimate:strata_est ~truth:true_d;
  Printf.printf "true difference: %d\n" true_d;
  Printf.printf "l0 estimator     (Thm 3.1): estimate=%-8d size=%d bits\n" l0_est (L0.size_bits l0);
  Printf.printf "strata estimator ([14]):    estimate=%-8d size=%d bits\n" strata_est
    (Strata.size_bits sa);
  push_report ~true_d ~label:"estimate" ~ok:true ();
  0

let estimate_cmd =
  let n = Arg.(value & opt int 5_000 & info [ "n" ] ~doc:"Set size.") in
  let d = Arg.(value & opt int 100 & info [ "d" ] ~doc:"True difference.") in
  Cmd.v (Cmd.info "estimate" ~doc:"Set-difference estimators (paper Theorem 3.1 / Appendix A)")
    (with_obs Term.(const run_estimate $ seed_term $ n $ d))

(* ---- server ---- *)

let run_server seed clients shards shard_size delta batches drop smoke =
  let module Load_gen = Ssr_server.Load_gen in
  let base = if smoke then Load_gen.smoke_cfg ~seed else Load_gen.default_cfg ~seed in
  let cfg =
    {
      base with
      Load_gen.clients = Option.value clients ~default:base.Load_gen.clients;
      shards = Option.value shards ~default:base.Load_gen.shards;
      shard_size = Option.value shard_size ~default:base.Load_gen.shard_size;
      client_delta = Option.value delta ~default:base.Load_gen.client_delta;
      mutation_batches = Option.value batches ~default:base.Load_gen.mutation_batches;
      drop = Option.value drop ~default:base.Load_gen.drop;
    }
  in
  Printf.printf "server: %d clients over %d shards x %d elems (delta %d, drop %g)\n%!"
    cfg.Load_gen.clients cfg.Load_gen.shards cfg.Load_gen.shard_size cfg.Load_gen.client_delta
    cfg.Load_gen.drop;
  start_wall ();
  let r = Load_gen.run cfg in
  let ok = r.Load_gen.failed = 0 in
  Printf.printf
    "server: %s  %d/%d sessions ok, %d rejected tries, %d More windows, %d mutations\n"
    (if ok then "RECOVERED" else "FAILED")
    r.Load_gen.completed r.Load_gen.clients r.Load_gen.rejected_tries r.Load_gen.escalations
    r.Load_gen.mutations_applied;
  Printf.printf
    "server: %.0f sessions/s (virtual)  p50=%d us  p99=%d us  elapsed=%d ms (virtual)  \
     wall=%.2f ms\n"
    r.Load_gen.sessions_per_sec r.Load_gen.p50_us r.Load_gen.p99_us
    (r.Load_gen.elapsed_us / 1000) (wall_ms ());
  Printf.printf "server: %d wire bytes (%d per session)\n" r.Load_gen.wire_bytes
    (r.Load_gen.wire_bytes / max 1 r.Load_gen.clients);
  Printf.printf "server: transcript digest %s\n" r.Load_gen.transcript_digest;
  if ok then 0 else 1

let server_cmd =
  let clients = Arg.(value & opt (some int) None & info [ "clients" ] ~doc:"Simulated clients.") in
  let shards = Arg.(value & opt (some int) None & info [ "shards" ] ~doc:"Server shards.") in
  let shard_size =
    Arg.(value & opt (some int) None & info [ "shard-size" ] ~doc:"Initial elements per shard.")
  in
  let delta =
    Arg.(value & opt (some int) None
         & info [ "delta" ] ~doc:"Per-client divergence (half added, half removed).")
  in
  let batches =
    Arg.(value & opt (some int) None & info [ "batches" ] ~doc:"Concurrent mutation batches.")
  in
  let drop =
    Arg.(value & opt (some float) None & info [ "drop" ] ~doc:"Per-packet drop probability.")
  in
  let smoke =
    Arg.(value & flag & info [ "smoke" ] ~doc:"Scaled-down defaults (hundreds of clients).")
  in
  Cmd.v
    (Cmd.info "server"
       ~doc:"Long-lived reconciliation daemon under trace-driven load (extension)")
    (with_obs
       Term.(const run_server $ seed_term $ clients $ shards $ shard_size $ delta $ batches
             $ drop $ smoke))

let () =
  let info = Cmd.info "reconcile" ~doc:"Protocols from 'Reconciling Graphs and Sets of Sets'" in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            sets_cmd; sos_cmd; dataset_cmd; db_cmd; graph_cmd; forest_cmd; estimate_cmd; sos3_cmd;
            faulty_cmd; multiparty_cmd; twoway_cmd; server_cmd;
          ]))
