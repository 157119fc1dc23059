(* Million-element streaming workload bench.

   Exercises every protocol stack end-to-end over the faulty channel on the
   three seeded dataset families (lib/apps/datasets.ml) at >= 10^6 elements
   in full mode, recording measured communication against the paper's
   theoretical bounds, and isolating the per-request encoding memo's win
   on multi-rung nested-protocol builds. Wall times go to stdout only.

   The harness never materializes a parent set: both sides are
   Parent.stream values (pure functions of seed + position) fed to
   Protocol.run_known_stream, so memory stays bounded by one
   encoding chunk plus the O(s) fingerprint index. (The flat "set" stack
   necessarily flattens the element multiset into two Iset values — flat
   integer sets, not parent sets — a few MB at this scale.)

   Regression gate: every field of BENCH_million.json is an exact
   deterministic function of the seeds (protocol transcripts depend only
   on them, and channel faults replay from their seed), so the committed
   smoke file is its own exact baseline: CI regenerates it and fails on
   [git diff --exit-code -- BENCH_million.json].

   Run:   dune exec bench/main.exe -- million           (full, minutes)
          dune exec bench/main.exe -- million --smoke   (CI, seconds) *)

module Prng = Ssr_util.Prng
module Iset = Ssr_util.Iset
module Hashing = Ssr_util.Hashing
module Bits = Ssr_util.Bits
module Comm = Ssr_setrecon.Comm
module Parent = Ssr_core.Parent
module Protocol = Ssr_core.Protocol
module Enc_cache = Ssr_core.Enc_cache
module Datasets = Ssr_apps.Datasets
module Channel = Ssr_transport.Channel
module Resilient = Ssr_transport.Resilient

let seed = 0x3E6A11CEL

let now_ns () = Monotonic_clock.now ()

let elapsed_ms t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6

(* The channel every exchange crosses: light but real fault rates, all
   replayable from the seed. *)
let drop_rate = 0.02

let corrupt_rate = 0.01

let faulty_comm ~cseed =
  let comm = Comm.create () in
  let channel = Channel.create (Channel.config_with ~drop:drop_rate ~corrupt:corrupt_rate ~seed:cseed ()) in
  Comm.set_transport comm (Channel.transport channel);
  comm

(* One streaming stack over the faulty channel: retry with per-attempt
   salts (both parties re-derive attempt i's schedule from the public
   seed), the child-encoding salt pinned across attempts as Resilient pins
   it. No memo: most runs take one attempt, where keeping a copy of every
   encoding costs more than it saves. Returns (outcome option, cumulative
   bits across attempts, attempts used). *)
let max_attempts = 5

let run_stream_stack kind ~wseed ~d ~u ~h ~alice ~bob =
  let rec go attempt bits =
    if attempt >= max_attempts then (None, bits, attempt)
    else begin
      let comm = faulty_comm ~cseed:(Prng.derive ~seed:wseed ~tag:(0xC4A7 + attempt)) in
      let aseed = Hashing.attempt_seed ~seed:wseed ~attempt in
      match
        Protocol.run_known_stream kind ~comm ~seed:aseed ~enc_seed:(Some wseed) ~d ~u ~h ~alice
          ~bob
      with
      | Ok o -> (Some o, bits + o.Protocol.stats.Comm.bits_total, attempt + 1)
      | Error `Decode_failure -> go (attempt + 1) (bits + (Comm.stats comm).Comm.bits_total)
    end
  in
  go 0 0

(* Flatten an instance's element multiset into a plain sorted set for the
   flat-set stack (a bounded flat array of ints, not a parent set). *)
let flat_elements (inst : Datasets.instance) =
  let st = inst.Datasets.stream in
  let n = max 1 (Parent.stream_total_elements st) in
  let arr = Array.make n 0 in
  let idx = ref 0 in
  Seq.iter
    (fun c ->
      Iset.iter
        (fun x ->
          arr.(!idx) <- x;
          incr idx)
        c)
    (Datasets.to_seq st);
  Iset.of_seq (Array.to_seq (Array.sub arr 0 !idx))

(* Paper bounds (bits, constants dropped): what each stack's communication
   is measured against in the x_bound column. *)
let bound_bits stack ~d ~d_hat ~s ~u ~h =
  let logu = float_of_int (Bits.bits_needed (max 2 (u - 1))) in
  let logs = float_of_int (Bits.bits_needed (max 2 s)) in
  let fd = float_of_int d and fdh = float_of_int d_hat in
  match stack with
  | `Set -> fd *. logu (* Cor 2.2: O(d log u) *)
  | `Sos Protocol.Naive -> (fdh *. float_of_int h *. logu) +. fdh (* Thm 3.3: O(d_hat h log u) *)
  | `Sos Protocol.Iblt_of_iblts -> (fdh *. fd *. logu) +. (fdh *. logs) (* Thm 3.5 *)
  | `Sos Protocol.Cascade ->
    let t = float_of_int (Bits.bits_needed (max 2 (min d h))) in
    (fd *. t *. logu) +. (fd *. logs) (* Thm 3.7: O(d log min(d,h) log u + d log s) *)
  | `Sos Protocol.Multiround -> fd *. logu (* Thm 3.9: O(d log u) leading term *)

let stack_name = function
  | `Set -> "set"
  | `Sos kind -> Protocol.name kind

let stacks =
  [
    `Set;
    `Sos Protocol.Naive;
    `Sos Protocol.Iblt_of_iblts;
    `Sos Protocol.Cascade;
    `Sos Protocol.Multiround;
  ]

(* ------------------------------------------------------------------ *)
(* The three dataset families                                          *)
(* ------------------------------------------------------------------ *)

let families ~smoke =
  if smoke then
    [
      ("graph", Datasets.graph ~seed:(Prng.derive ~seed ~tag:1) ~nodes:1_500 ~avg_degree:4, 8);
      ( "zipf",
        Datasets.zipf ~seed:(Prng.derive ~seed ~tag:2) ~parents:4_000 ~universe:(1 lsl 30)
          ~max_child_size:24 ~alpha:1.0,
        8 );
      ( "shingles",
        Datasets.shingle_corpus ~seed:(Prng.derive ~seed ~tag:3) ~docs:1_000
          ~shingles_per_doc:8 ~overlap:0.5,
        8 );
    ]
  else
    [
      ("graph", Datasets.graph ~seed:(Prng.derive ~seed ~tag:1) ~nodes:250_000 ~avg_degree:4, 64);
      ( "zipf",
        Datasets.zipf ~seed:(Prng.derive ~seed ~tag:2) ~parents:550_000 ~universe:(1 lsl 30)
          ~max_child_size:24 ~alpha:1.0,
        64 );
      ( "shingles",
        Datasets.shingle_corpus ~seed:(Prng.derive ~seed ~tag:3) ~docs:120_000
          ~shingles_per_doc:9 ~overlap:0.5,
        64 );
    ]

let reconcile_rows ~smoke push =
  List.iter
    (fun (fname, bob_inst, edits) ->
      let alice_inst = Datasets.pair ~seed:(Prng.derive ~seed ~tag:0xA11CE) ~edits bob_inst in
      let bob = bob_inst.Datasets.stream and alice = alice_inst.Datasets.stream in
      let s = bob.Parent.length in
      let n = Parent.stream_total_elements bob in
      let u = alice_inst.Datasets.universe and h = alice_inst.Datasets.max_child_size in
      let d = edits in
      let d_hat = min d (max 2 s) in
      Printf.printf "\n[%s] s=%d n=%d u=2^%d h=%d d=%d (drop=%.2f corrupt=%.2f)\n" fname s n
        (Bits.bits_needed (u - 1))
        h d drop_rate corrupt_rate;
      Printf.printf "  %-14s %12s %12s %8s %9s %4s\n" "stack" "bits" "bound" "x_bound" "wall_ms" "try";
      List.iter
        (fun stack ->
          let wseed = Prng.derive ~seed ~tag:(Hashtbl.hash (fname, stack_name stack)) in
          let t0 = now_ns () in
          let ok, bits, attempts =
            match stack with
            | `Set -> (
              let fa = flat_elements alice_inst and fb = flat_elements bob_inst in
              let channel =
                Channel.create
                  (Channel.config_with ~drop:drop_rate ~corrupt:corrupt_rate
                     ~seed:(Prng.derive ~seed:wseed ~tag:0xC4A7) ())
              in
              match
                Resilient.reconcile_set
                  ~link:(Resilient.over_channel channel)
                  ~seed:wseed ~initial_d:(max 4 d) ~alice:fa ~bob:fb ()
              with
              | Ok (recovered, rep) ->
                (Iset.equal recovered fa, rep.Resilient.stats.Comm.bits_total,
                 List.length rep.Resilient.attempts)
              | Error (`Transport_failure rep) | Error (`Deadline_exceeded rep) ->
                (false, rep.Resilient.stats.Comm.bits_total, List.length rep.Resilient.attempts))
            | `Sos kind -> (
              match run_stream_stack kind ~wseed ~d ~u ~h ~alice ~bob with
              | Some o, bits, attempts ->
                (* run_stream verified the delta against Alice's stream
                   digest; the lists must mirror each other (every edited
                   child appears as one a_only and one b_only entry). *)
                let da = List.length o.Protocol.delta.Parent.a_only in
                let db = List.length o.Protocol.delta.Parent.b_only in
                (da = db && da > 0, bits, attempts)
              | None, bits, attempts -> (false, bits, attempts))
          in
          let wall = elapsed_ms t0 in
          let bound = bound_bits stack ~d ~d_hat ~s ~u ~h in
          let x = float_of_int bits /. Float.max 1.0 bound in
          Printf.printf "  %-14s %12d %12.0f %7.1fx %9.0f %4d%s\n" (stack_name stack) bits bound
            x wall attempts
            (if ok then "" else "  FAILED");
          push
            [
              ("name", Perf.S "million_reconcile");
              ("family", Perf.S fname);
              ("stack", Perf.S (stack_name stack));
              ("children", Perf.I s);
              ("elements", Perf.I n);
              ("d", Perf.I d);
              ("bits", Perf.I bits);
              ("bound_bits", Perf.F bound);
              ("x_bound", Perf.F x);
              ("attempts", Perf.I attempts);
              ("ok", Perf.B ok);
            ])
        stacks)
    (families ~smoke)

(* ------------------------------------------------------------------ *)
(* Per-request encoding memo on multi-rung builds                      *)
(* ------------------------------------------------------------------ *)

(* Three rungs of the same nested protocol under per-attempt salts with
   the encoding salt pinned, sharing one memo — exactly what the Resilient
   ladder runs — against the same three rungs without a memo. Without it
   every rung re-encodes every child on both sides; with it, only Alice's
   first pass computes and everything after hits. The transcripts are
   byte-identical either way (the row's [transparent] flag, differentially
   tested in test/); the two timings go to stdout. *)
let cache_speedup push =
  (* Full-size children (alpha = 0) keep the per-child encoding work — the
     thing the memo elides — the dominant build cost, as it is in the
     paper's binary-database regime of wide children. The section is
     identical in smoke and full mode (it costs well under a second). *)
  let parents = 5_000 in
  let bob_inst =
    Datasets.zipf ~seed:(Prng.derive ~seed ~tag:7) ~parents ~universe:(1 lsl 30)
      ~max_child_size:24 ~alpha:0.0
  in
  let edits = 8 in
  let alice_inst = Datasets.pair ~seed:(Prng.derive ~seed ~tag:0xCA17E) ~edits bob_inst in
  (* Materialize once and view as streams: child generation is then an
     array lookup for both modes, so the timed difference isolates the
     encoding work the memo elides rather than dataset re-derivation
     (which every walk pays identically in both modes). *)
  let bob = Parent.stream_of_t (Parent.of_stream bob_inst.Datasets.stream) in
  let alice = Parent.stream_of_t (Parent.of_stream alice_inst.Datasets.stream) in
  let n = Parent.stream_total_elements bob in
  let u = alice_inst.Datasets.universe and h = alice_inst.Datasets.max_child_size in
  let d = edits in
  Printf.printf "\n[memo] three-rung nested builds, s=%d n=%d d=%d\n" bob.Parent.length n d;
  Printf.printf "  %-14s %12s %12s %9s\n" "stack" "no_memo_ms" "memo_ms" "speedup";
  List.iter
    (fun kind ->
      let wseed = Prng.derive ~seed ~tag:(Hashtbl.hash ("cache", Protocol.name kind)) in
      let three_rungs memo =
        List.map
          (fun attempt ->
            let comm = Comm.create () in
            let aseed = Hashing.attempt_seed ~seed:wseed ~attempt in
            ignore
              (Protocol.run_known_stream ?memo kind ~comm ~seed:aseed ~enc_seed:(Some wseed) ~d ~u
                 ~h ~alice ~bob);
            Comm.stats comm)
          [ 0; 1; 2 ]
      in
      let timed memo =
        let t0 = now_ns () in
        let stats = three_rungs memo in
        (elapsed_ms t0, stats)
      in
      let uncached_ms, stats_off = timed None in
      let cached_ms, stats_on = timed (Some (Enc_cache.create ())) in
      (* Byte-transparency: identical transcripts bit for bit. *)
      let transparent =
        List.for_all2
          (fun (a : Comm.stats) (b : Comm.stats) ->
            a.Comm.bits_total = b.Comm.bits_total && a.Comm.messages = b.Comm.messages)
          stats_off stats_on
      in
      let speedup = uncached_ms /. Float.max 1e-3 cached_ms in
      Printf.printf "  %-14s %12.0f %12.0f %8.2fx%s\n" (Protocol.name kind) uncached_ms cached_ms
        speedup
        (if transparent then "" else "  TRANSCRIPTS DIFFER");
      push
        [
          ("name", Perf.S "cache_speedup");
          ("stack", Perf.S (Protocol.name kind));
          ("children", Perf.I bob.Parent.length);
          ("elements", Perf.I n);
          ("d", Perf.I d);
          ("transparent", Perf.B transparent);
        ])
    [ Protocol.Iblt_of_iblts; Protocol.Cascade ]

(* ------------------------------------------------------------------ *)

let run ~smoke =
  Printf.printf "million: %s mode, %d-attempt faulty-channel retry\n%!"
    (if smoke then "smoke" else "full")
    max_attempts;
  let t0 = now_ns () in
  let results = ref [] in
  let push r = results := r :: !results in
  reconcile_rows ~smoke push;
  cache_speedup push;
  let cs = Enc_cache.stats () in
  Printf.printf "\nmemos: %.1f MB kept (hits/misses this run: %d/%d)\n"
    (float_of_int cs.Enc_cache.bytes /. 1048576.0)
    cs.Enc_cache.hits cs.Enc_cache.misses;
  Perf.write_json ~command:"dune exec bench/main.exe -- million" ~path:"BENCH_million.json"
    ~suite:"million" ~smoke (List.rev !results);
  Printf.printf "million: done in %.1f s\n%!" (elapsed_ms t0 /. 1e3)
