(* Adversarial-robustness bench: the plain one-shot protocol against the
   two-rung Resilient ladder.

   Two sweeps, both pure functions of the seed:

   1. The rescue sweep. Per trial, a difference is engineered against the
      exact hash schedule the first attempt will use (lib/apps/adversarial.ml:
      [adversarial] grinds keys against attempt 0's IBLT schedule,
      [adversarial_rateless] against attempt 0's rateless cell schedule),
      or drawn at random, or drawn at random against an undersized table.
      The plain one-shot protocol (one IBLT under attempt 0's salt) and the
      Resilient ladder run on the same workload from the same first bound,
      the ladder once per first-rung strategy, over a perfect unframed
      channel so bits are payload bits. The first rung retries under a
      fresh attempt salt with a doubled bound (doubling) or streams coded
      cells (rateless); direct transfer follows when it runs out. Rows
      report success rates, the rescue rate (plain failures the first
      rung recovers, never counting a direct fallback), the direct
      fallbacks, extra rounds and bits against the plain table.

   2. The stacks sweep. All five protocol stacks (plain set + the four
      set-of-sets protocols) run over the faulty simulated network on
      adversarially seeded workloads through the full Resilient ladder;
      every outcome must be verified-correct or a typed failure.

   Gates (exit 2): any silent corruption; on an adversarial family, a
   first-rung rescue rate below 95% under either strategy; an IBLT-ground
   family that fails to stall the plain protocol. Every field of every row
   is seed-determined, so the committed BENCH_robust.json is its own exact
   baseline: CI regenerates it and fails on
   [git diff --exit-code -- BENCH_robust.json].

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
module Channel = Ssr_transport.Channel
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

let strategy_name = function Resilient.Doubling -> "doubling" | Resilient.Rateless -> "rateless"

(* One workload of a row: the difference, the plain one-shot outcome and,
   for the rateless-ground family, the grind's w. *)
type workload = {
  alice : Iset.t;
  bob : Iset.t;
  bound : int;  (** The first attempt's difference bound. *)
  plain_ok : bool;
  plain_bits : int;
  plain_silent : bool;
  w : int;
}

let workload ~tseed ~family ~d =
  (* The tight family deliberately undersizes the bound so random keys
     stall too. *)
  let bound = match family with "random_tight" -> max 4 (d / 2) | _ -> d in
  let (alice, bob), w =
    match family with
    | "adversarial" ->
      (Adversarial.workload ~prm:(attempt0_params ~seed:tseed ~d:bound) ~bob_size:200 ~count:d (), 0)
    | "adversarial_rateless" ->
      Adversarial.rateless_workload ~seed:(Hashing.attempt_seed ~seed:tseed ~attempt:0)
        ~bob_size:200 ~count:d ()
    | _ -> (random_workload ~seed:tseed ~bob_size:200 ~count:d, 0)
  in
  let plain_ok, plain_bits, plain_silent =
    match
      Set_recon.reconcile_known_d ~seed:(Hashing.attempt_seed ~seed:tseed ~attempt:0) ~d:bound
        ~alice ~bob ()
    with
    | Ok o -> (true, o.Set_recon.stats.Comm.bits_total, not (Iset.equal o.Set_recon.recovered alice))
    | Error (`Decode_failure stats) -> (false, stats.Comm.bits_total, false)
  in
  { alice; bob; bound; plain_ok; plain_bits; plain_silent; w }

type trial = {
  ok : bool;  (** Verified result from either rung. *)
  first_rung : bool;  (** Verified without falling back to direct transfer. *)
  bits : int;
  rounds : int;
  attempts : int;
  silent : bool;
}

let run_ladder ~tseed ~strategy wl =
  let link = Resilient.over_channel ~framed:false (Channel.create Channel.perfect) in
  let recovered, rep =
    match
      Resilient.reconcile_set ~link ~seed:tseed ~strategy ~initial_d:wl.bound ~alice:wl.alice
        ~bob:wl.bob ()
    with
    | Ok (recovered, rep) -> (Some recovered, rep)
    | Error (`Transport_failure rep | `Deadline_exceeded rep) -> (None, rep)
  in
  let ok = match recovered with Some r -> Iset.equal r wl.alice | None -> false in
  {
    ok;
    first_rung = ok && not rep.Resilient.degraded;
    bits = rep.Resilient.stats.Comm.bits_total;
    rounds = rep.Resilient.stats.Comm.rounds;
    attempts = List.length rep.Resilient.attempts;
    silent = recovered <> None && not ok;
  }

let rescue_rows ~family ~d ~trials =
  let tseeds = List.init trials (fun t -> Prng.derive ~seed ~tag:(0x2000 + (1000 * d) + t)) in
  let wls = List.map (fun tseed -> (tseed, workload ~tseed ~family ~d)) tseeds in
  let count f l = List.length (List.filter f l) in
  let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  let pct num den = if den = 0 then 100 else 100 * num / den in
  let mean num den = if den = 0 then 0 else num / den in
  let plain_fail = count (fun (_, wl) -> not wl.plain_ok) wls in
  List.map
    (fun strategy ->
      let runs = List.map (fun (tseed, wl) -> (wl, run_ladder ~tseed ~strategy wl)) wls in
      let rescued = count (fun (wl, r) -> (not wl.plain_ok) && r.first_rung) runs in
      let ok = count (fun (_, r) -> r.ok) runs in
      let silent = count (fun (wl, r) -> wl.plain_silent || r.silent) runs in
      let row =
        [ ("name", Perf.S "robust_sweep"); ("family", Perf.S family);
          ("strategy", Perf.S (strategy_name strategy)); ("d", Perf.I d);
          ("trials", Perf.I trials);
          ("plain_success_pct", Perf.I (pct (trials - plain_fail) trials));
          ("robust_success_pct", Perf.I (pct ok trials));
          ("plain_fail", Perf.I plain_fail); ("rescued", Perf.I rescued);
          ("rescue_pct", Perf.I (pct rescued plain_fail));
          ("direct_fallbacks", Perf.I (count (fun (_, r) -> r.ok && not r.first_rung) runs));
          ("extra_rounds_mean", Perf.I (mean (sum (fun (_, r) -> r.rounds - 1) runs) trials));
          ("attempts_mean", Perf.I (mean (sum (fun (_, r) -> r.attempts) runs) trials));
          ("plain_bits_mean", Perf.I (mean (sum (fun (wl, _) -> wl.plain_bits) runs) trials));
          ("robust_bits_mean", Perf.I (mean (sum (fun (_, r) -> r.bits) runs) trials));
          ("silent", Perf.I silent) ]
        @
        if family = "adversarial_rateless" then
          [ ("grind_w_min", Perf.I (List.fold_left (fun w (_, wl) -> min w wl.w) max_int wls)) ]
        else []
      in
      (row, (plain_fail, rescued, silent)))
    [ Resilient.Doubling; Resilient.Rateless ]

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

(* Each stack's attempt budget is four: the set stack's adversarial family
   stalls its first attempt, and every retry runs under a fresh salt. *)
let stack_trial ~stack ~nseed =
  let verdict correct = function
    | Ok (got, (rep : Resilient.report)) -> ((if correct got then `Ok else `Silent), rep)
    | Error (`Transport_failure rep | `Deadline_exceeded rep) -> (`Typed, rep)
  in
  match stack with
  | `Set ->
    let d = 24 in
    let alice, bob =
      Adversarial.workload ~prm:(attempt0_params ~seed:nseed ~d) ~bob_size:150 ~count:d ()
    in
    verdict (Iset.equal alice)
      (Resilient.reconcile_set ~link:(faulty_link ~nseed) ~seed:nseed ~initial_d:d
         ~max_attempts:4 ~alice ~bob ())
  | `Sos kind ->
    let alice, bob = sos_workload ~nseed in
    verdict (Parent.equal alice)
      (Resilient.reconcile_sos ~link:(faulty_link ~nseed) ~kind ~seed:nseed ~u:sos_u ~h:sos_h
         ~initial_d:8 ~max_attempts:4 ~alice ~bob ())

let stack_row ~stack ~trials =
  let label = match stack with `Set -> "set" | `Sos kind -> Protocol.name kind in
  let ok = ref 0 and typed = ref 0 and silent = ref 0 and attempts = ref 0 and degraded = ref 0 in
  for t = 0 to trials - 1 do
    let nseed = Prng.derive ~seed ~tag:(0x3000 + (64 * t) + Hashtbl.hash label mod 64) in
    let verdict, rep = stack_trial ~stack ~nseed in
    attempts := !attempts + List.length rep.Resilient.attempts;
    if rep.Resilient.degraded then incr degraded;
    incr (match verdict with `Ok -> ok | `Silent -> silent | `Typed -> typed)
  done;
  ( [ ("name", Perf.S "robust_stacks"); ("stack", Perf.S label); ("trials", Perf.I trials);
      ("ok", Perf.I !ok); ("typed_failures", Perf.I !typed); ("silent", Perf.I !silent);
      ("attempts_total", Perf.I !attempts); ("degraded", Perf.I !degraded) ],
    !silent )

(* ------------------------------------------------------------------ *)

let run () =
  Printf.printf "robust: adversarial sweep, plain IBLT vs the two-rung ladder (fixed workload)\n%!";
  let trials = 40 in
  let sweep =
    List.concat_map
      (fun family -> List.concat_map (fun d -> rescue_rows ~family ~d ~trials) [ 16; 48 ])
      [ "adversarial"; "adversarial_rateless"; "random"; "random_tight" ]
  in
  let sweep_rows = List.map fst sweep in
  let stacks =
    List.map (fun stack -> stack_row ~stack ~trials:3) (`Set :: List.map (fun k -> `Sos k) Protocol.all)
  in
  let stack_rows = List.map fst stacks in
  let geti row k = match List.assoc_opt k row with Some (Perf.I v) -> v | _ -> 0 in
  let gets row k = match List.assoc_opt k row with Some (Perf.S v) -> v | _ -> "" in
  List.iter
    (fun row ->
      Printf.printf
        "  %-20s %-8s d=%-3d plain %3d%%  robust %3d%%  rescue %3d%% (%d/%d)  direct %2d  bits %d->%d%s\n%!"
        (gets row "family") (gets row "strategy") (geti row "d") (geti row "plain_success_pct")
        (geti row "robust_success_pct") (geti row "rescue_pct") (geti row "rescued")
        (geti row "plain_fail") (geti row "direct_fallbacks") (geti row "plain_bits_mean")
        (geti row "robust_bits_mean")
        (match List.assoc_opt "grind_w_min" row with
        | Some (Perf.I w) -> Printf.sprintf "  (w >= %d)" w
        | _ -> ""))
    sweep_rows;
  List.iter
    (fun row ->
      Printf.printf "  stack %-16s ok %d/%d  typed %d  silent %d  attempts %d  degraded %d\n%!"
        (gets row "stack") (geti row "ok") (geti row "trials") (geti row "typed_failures")
        (geti row "silent") (geti row "attempts_total") (geti row "degraded"))
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
        match gets row "family" with
        | "adversarial" -> plain_fail > 0 && 100 * rescued >= 95 * plain_fail
        | "adversarial_rateless" -> 100 * rescued >= 95 * plain_fail
        | _ -> true)
      sweep
  in
  if silent_total > 0 then begin
    Printf.printf "robust: FAIL - %d silent corruption(s)\n%!" silent_total;
    exit 2
  end;
  if not criterion_ok then begin
    Printf.printf
      "robust: FAIL - adversarial first-rung rescue rate below 95%% (or family failed to stall \
       plain decode)\n%!";
    exit 2
  end
