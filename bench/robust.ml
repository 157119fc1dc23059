(* Adversarial-robustness bench: stash-augmented salvage vs plain IBLT.

   Two sweeps, both pure functions of the seed:

   1. The rescue sweep. Per trial, a difference is engineered with the
      adversarial generator (keys ground against the exact hash schedule
      the first attempt will use, lib/apps/adversarial.ml), or drawn at
      random, or drawn at random against an undersized table. The plain
      one-shot protocol and the salted-rehash salvage escalation
      (Set_recon.reconcile_salvage machinery) run on the same workload at
      the same first-attempt cell count; rows report decode success rates,
      the rescue rate (robust successes among plain failures), the salvage
      fraction (keys recovered by partial decodes before the completing
      attempt), extra rounds and bytes vs the plain table.

   2. The stacks sweep. All five protocol stacks (plain set + the four
      set-of-sets protocols) run over the faulty simulated network on
      adversarially seeded workloads through the full Resilient ladder;
      every outcome must be verified-correct or a typed failure.

   Gates (exit 2): any silent corruption; an adversarial rescue rate below
   95%. Every field of every row is seed-determined, so the committed
   BENCH_robust.json is its own exact baseline: CI regenerates it and
   fails on [git diff --exit-code -- BENCH_robust.json].

   Run:   dune exec bench/main.exe -- robust                               *)

module Prng = Ssr_util.Prng
module Iset = Ssr_util.Iset
module Hashing = Ssr_util.Hashing
module Iblt = Ssr_sketch.Iblt
module Comm = Ssr_setrecon.Comm
module Set_recon = Ssr_setrecon.Set_recon
module Parent = Ssr_core.Parent
module Protocol = Ssr_core.Protocol
module Adversarial = Ssr_apps.Adversarial
module Clock = Ssr_transport.Clock
module Network = Ssr_transport.Network
module Arq = Ssr_transport.Arq
module Resilient = Ssr_transport.Resilient

let seed = 0x0B0B5E7L

(* ------------------------------------------------------------------ *)
(* Rescue sweep                                                        *)
(* ------------------------------------------------------------------ *)

let k = 4

let attempt0_params ~seed ~d : Iblt.params =
  {
    cells = Iblt.recommended_cells ~k ~diff_bound:d;
    k;
    key_len = 8;
    seed = Hashing.attempt_seed ~seed ~attempt:0;
  }

(* A random workload in the same shape as Adversarial.workload: bob random,
   alice = bob plus [count] extra keys from a disjoint range. *)
let random_workload ~seed ~bob_size ~count =
  let rng = Prng.create ~seed:(Prng.derive ~seed ~tag:0x0B0B) in
  let draw lo n =
    let s = ref Iset.empty in
    while Iset.cardinal !s < n do
      s := Iset.add (lo + Prng.int_below rng (1 lsl 40)) !s
    done;
    !s
  in
  let bob = draw (1 lsl 40) bob_size in
  let diff = draw 0 count in
  (Iset.union bob diff, bob)

type trial = {
  plain_ok : bool;
  plain_bits : int;
  robust_ok : bool;
  robust_bits : int;
  robust_rounds : int;
  robust_attempts : int;
  partial_keys : int; (* recovered before the completing attempt *)
  silent : bool;
}

let run_trial ~tseed ~family ~d =
  (* [bound] is the first-attempt difference bound; the tight family
     deliberately undersizes it so random keys stall too. *)
  let bound = match family with "random_tight" -> max 4 (d / 2) | _ -> d in
  let alice, bob =
    match family with
    | "adversarial" ->
      Adversarial.workload ~prm:(attempt0_params ~seed:tseed ~d:bound) ~bob_size:200 ~count:d ()
    | _ -> random_workload ~seed:tseed ~bob_size:200 ~count:d
  in
  let plain_ok, plain_bits, plain_silent =
    match
      Set_recon.reconcile_known_d ~seed:(Hashing.attempt_seed ~seed:tseed ~attempt:0) ~d:bound ~k
        ~alice ~bob ()
    with
    | Ok o -> (true, o.Set_recon.stats.Comm.bits_total, not (Iset.equal o.Set_recon.recovered alice))
    | Error (`Decode_failure stats) -> (false, stats.Comm.bits_total, false)
  in
  (* The salvage escalation, driven attempt by attempt so the table can
     report how many keys the non-completing attempts contributed. *)
  let comm = Comm.create () in
  let sv = Set_recon.salvage_init ~d:bound ~bob () in
  let max_attempts = 8 in
  let rec go i =
    if i >= max_attempts then (false, 0, i, false)
    else begin
      let partial_before = Set_recon.salvage_keys sv in
      match Set_recon.run_salvage_attempt ~comm ~seed:tseed ~attempt:i ~k ~sv ~alice with
      | Ok o -> (true, partial_before, i + 1, not (Iset.equal o.Set_recon.recovered alice))
      | Error `Progress -> go (i + 1)
    end
  in
  let robust_ok, partial_keys, robust_attempts, robust_silent = go 0 in
  let stats = Comm.stats comm in
  {
    plain_ok;
    plain_bits;
    robust_ok;
    robust_bits = stats.Comm.bits_total;
    robust_rounds = stats.Comm.rounds;
    robust_attempts;
    partial_keys;
    silent = plain_silent || robust_silent;
  }

let rescue_row ~family ~d ~trials =
  let runs =
    List.init trials (fun t ->
        run_trial ~tseed:(Prng.derive ~seed ~tag:(0x2000 + (1000 * d) + t)) ~family ~d)
  in
  let count f = List.length (List.filter f runs) in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 runs in
  let plain_fail = count (fun r -> not r.plain_ok) in
  let rescued = count (fun r -> (not r.plain_ok) && r.robust_ok) in
  let robust_ok = count (fun r -> r.robust_ok) in
  let silent = count (fun r -> r.silent) in
  let pct num den = if den = 0 then 100 else 100 * num / den in
  let mean num den = if den = 0 then 0 else num / den in
  ( [ ("name", Perf.S "robust_sweep"); ("family", Perf.S family); ("d", Perf.I d);
      ("trials", Perf.I trials);
      ("plain_success_pct", Perf.I (pct (trials - plain_fail) trials));
      ("robust_success_pct", Perf.I (pct robust_ok trials));
      ("plain_fail", Perf.I plain_fail); ("rescued", Perf.I rescued);
      ("rescue_pct", Perf.I (pct rescued plain_fail));
      ("salvage_fraction_pct",
       Perf.I (pct (sum (fun r -> if r.robust_ok then r.partial_keys else 0)) (robust_ok * d)));
      ("extra_rounds_mean", Perf.I (mean (sum (fun r -> r.robust_rounds - 1)) trials));
      ("attempts_mean", Perf.I (mean (sum (fun r -> r.robust_attempts)) trials));
      ("plain_bits_mean", Perf.I (mean (sum (fun r -> r.plain_bits)) trials));
      ("robust_bits_mean", Perf.I (mean (sum (fun r -> r.robust_bits)) trials));
      ("silent", Perf.I silent) ],
    (plain_fail, rescued, silent) )

(* ------------------------------------------------------------------ *)
(* Five stacks over the faulty network                                 *)
(* ------------------------------------------------------------------ *)

let faulty_link ~nseed =
  let clock = Clock.create () in
  let network =
    Network.create ~clock
      (Network.config_with ~drop:0.02 ~corrupt:0.02 ~latency_us:500 ~jitter_us:200 ~seed:nseed ())
  in
  let arq = Arq.create ~clock ~network ~seed:nseed () in
  Resilient.over_network arq

let sos_u = 1 lsl 40
let sos_h = 48

(* Adversarially seeded set-of-sets workload: two children get extra
   elements drawn from a colliding family (ground against the plain-set
   schedule of this seed — the inner sketches derive their own schedules,
   so for the nested protocols this is a hostile-flavoured correctness
   sweep rather than a targeted stall). *)
let sos_workload ~nseed =
  let rng = Prng.create ~seed:(Prng.derive ~seed:nseed ~tag:0x50F) in
  let bob = Parent.random rng ~universe:sos_u ~children:8 ~child_size:12 in
  let fam =
    Adversarial.colliding_ints ~prm:(attempt0_params ~seed:nseed ~d:8) ~count:6 ~salt:7 ()
  in
  let rec split3 = function
    | a :: b :: c :: rest -> (a, b, c) :: split3 rest
    | _ -> []
  in
  let extras = split3 fam in
  let children =
    List.mapi
      (fun i c ->
        match List.nth_opt extras i with
        | Some (a, b, c') when i < 2 -> Iset.union c (Iset.of_list [ a; b; c' ])
        | _ -> c)
      (Parent.children bob)
  in
  (Parent.of_children children, bob)

let stack_trial ~stack ~nseed =
  match stack with
  | `Set ->
    let d = 24 in
    let alice, bob =
      Adversarial.workload ~prm:(attempt0_params ~seed:nseed ~d) ~bob_size:150 ~count:d ()
    in
    (match
       Resilient.reconcile_set ~link:(faulty_link ~nseed) ~seed:nseed ~initial_d:d
         ~max_attempts:1 ~rehash_attempts:3 ~alice ~bob ()
     with
    | Ok (recovered, rep) ->
      let salvage =
        List.length (List.filter (fun (a : Resilient.attempt) -> a.Resilient.salvage) rep.Resilient.attempts)
      in
      (`Ok (Iset.equal recovered alice), List.length rep.Resilient.attempts, salvage)
    | Error (`Transport_failure rep | `Deadline_exceeded rep) ->
      (`Typed, List.length rep.Resilient.attempts, 0))
  | `Sos kind -> (
    let alice, bob = sos_workload ~nseed in
    match
      Resilient.reconcile_sos ~link:(faulty_link ~nseed) ~kind ~seed:nseed ~u:sos_u ~h:sos_h
        ~initial_d:8 ~max_attempts:2 ~rehash_attempts:2 ~alice ~bob ()
    with
    | Ok (recovered, rep) ->
      let salvage =
        List.length (List.filter (fun (a : Resilient.attempt) -> a.Resilient.salvage) rep.Resilient.attempts)
      in
      (`Ok (Parent.equal recovered alice), List.length rep.Resilient.attempts, salvage)
    | Error (`Transport_failure rep | `Deadline_exceeded rep) ->
      (`Typed, List.length rep.Resilient.attempts, 0))

let stack_row ~stack ~trials =
  let label = match stack with `Set -> "set" | `Sos kind -> Protocol.name kind in
  let ok = ref 0 and typed = ref 0 and silent = ref 0 and attempts = ref 0 and salvage = ref 0 in
  for t = 0 to trials - 1 do
    let nseed = Prng.derive ~seed ~tag:(0x3000 + (64 * t) + Hashtbl.hash label mod 64) in
    match stack_trial ~stack ~nseed with
    | `Ok true, a, s ->
      incr ok;
      attempts := !attempts + a;
      salvage := !salvage + s
    | `Ok false, a, s ->
      incr silent;
      attempts := !attempts + a;
      salvage := !salvage + s
    | `Typed, a, _ ->
      incr typed;
      attempts := !attempts + a
  done;
  ( [ ("name", Perf.S "robust_stacks"); ("stack", Perf.S label); ("trials", Perf.I trials);
      ("ok", Perf.I !ok); ("typed_failures", Perf.I !typed); ("silent", Perf.I !silent);
      ("attempts_total", Perf.I !attempts); ("salvage_attempts_total", Perf.I !salvage) ],
    !silent )

(* ------------------------------------------------------------------ *)

let run () =
  Printf.printf "robust: adversarial sweep, stash + salted rehash vs plain IBLT (fixed workload)\n%!";
  let trials = 40 in
  let sweep =
    List.concat_map
      (fun family -> List.map (fun d -> rescue_row ~family ~d ~trials) [ 16; 48 ])
      [ "adversarial"; "random"; "random_tight" ]
  in
  let sweep_rows = List.map fst sweep in
  let stacks =
    List.map (fun stack -> stack_row ~stack ~trials:3) (`Set :: List.map (fun k -> `Sos k) Protocol.all)
  in
  let stack_rows = List.map fst stacks in
  List.iter
    (fun row ->
      match (List.assoc_opt "family" row, List.assoc_opt "d" row) with
      | Some (Perf.S f), Some (Perf.I d) ->
        let geti k = match List.assoc_opt k row with Some (Perf.I v) -> v | _ -> 0 in
        Printf.printf
          "  %-14s d=%-3d plain %3d%%  robust %3d%%  rescue %3d%% (%d/%d)  salvage %3d%%  bits %d->%d\n%!"
          f d (geti "plain_success_pct") (geti "robust_success_pct") (geti "rescue_pct")
          (geti "rescued") (geti "plain_fail") (geti "salvage_fraction_pct")
          (geti "plain_bits_mean") (geti "robust_bits_mean")
      | _ -> ())
    sweep_rows;
  List.iter
    (fun row ->
      match List.assoc_opt "stack" row with
      | Some (Perf.S s) ->
        let geti k = match List.assoc_opt k row with Some (Perf.I v) -> v | _ -> 0 in
        Printf.printf "  stack %-16s ok %d/%d  typed %d  silent %d  salvage-attempts %d\n%!" s
          (geti "ok") (geti "trials") (geti "typed_failures") (geti "silent")
          (geti "salvage_attempts_total")
      | _ -> ())
    stack_rows;
  let results = sweep_rows @ stack_rows in
  Perf.write_json ~command:"dune exec bench/main.exe -- robust" ~path:"BENCH_robust.json"
    ~suite:"robust" ~smoke:false results;
  let silent_total =
    List.fold_left (fun acc (_, (_, _, s)) -> acc + s) 0 sweep
    + List.fold_left (fun acc (_, s) -> acc + s) 0 stacks
  in
  let criterion_ok =
    List.for_all
      (fun (row, (plain_fail, rescued, _)) ->
        match List.assoc_opt "family" row with
        | Some (Perf.S "adversarial") ->
          plain_fail > 0 && 100 * rescued >= 95 * plain_fail
        | _ -> true)
      sweep
  in
  if silent_total > 0 then begin
    Printf.printf "robust: FAIL - %d silent corruption(s)\n%!" silent_total;
    exit 2
  end;
  if not criterion_ok then begin
    Printf.printf
      "robust: FAIL - adversarial rescue rate below 95%% (or family failed to stall plain decode)\n%!";
    exit 2
  end
