(* Machine-readable micro-benchmark subsystem.

   Times the two hot paths every protocol in the paper bottoms out in —
   IBLT construction/peeling and GF(2^61-1) polynomial kernels — plus the
   end-to-end set-of-sets protocols, and emits the results as JSON
   (BENCH_sketch.json / BENCH_field.json in the current directory) so perf
   can be tracked across commits by machines, not eyeballs.

   Method: monotonic wall clock (bechamel's CLOCK_MONOTONIC stub), a few
   warmup batches, then repeated timed batches; the reported figure is the
   median over batches of (elapsed / reps). Batch sizes are auto-calibrated
   so one batch takes ~20ms, which puts clock resolution noise well below
   1%. [--smoke] shrinks workloads and trial counts so CI can verify the
   harness itself stays alive without paying the full measurement cost;
   smoke runs are also gated against the committed timing baselines in
   bench/baseline/ (>10% median slowdown on any row exits 2).

   Run:   dune exec bench/main.exe -- perf           (full, ~1 min)
          dune exec bench/main.exe -- perf --smoke   (CI, a few seconds)

   JSON schema: see EXPERIMENTS.md ("Perf harness"). *)

module Prng = Ssr_util.Prng
module Iset = Ssr_util.Iset
module Hashing = Ssr_util.Hashing
module Iblt = Ssr_sketch.Iblt
module Gf61 = Ssr_field.Gf61
module Poly = Ssr_field.Poly
module Roots = Ssr_field.Roots
module Parent = Ssr_core.Parent
module Protocol = Ssr_core.Protocol

let seed = 0x9E4FBEA7L

let now_ns () = Monotonic_clock.now ()

let elapsed_ns t0 = Int64.to_float (Int64.sub (now_ns ()) t0)

(* Median ns/op over [trials] batches of [reps] calls each. *)
let measure_with ~trials ~reps f =
  for _ = 1 to 2 do
    ignore (Sys.opaque_identity (f ()))
  done;
  let samples =
    Array.init trials (fun _ ->
        let t0 = now_ns () in
        for _ = 1 to reps do
          ignore (Sys.opaque_identity (f ()))
        done;
        elapsed_ns t0 /. float_of_int reps)
  in
  Array.sort compare samples;
  samples.(trials / 2)

(* Auto-calibrate reps so a batch lasts ~[batch_ns], then measure. *)
let measure ~trials ?(batch_ns = 2e7) f =
  let t0 = now_ns () in
  ignore (Sys.opaque_identity (f ()));
  let once = Float.max 1.0 (elapsed_ns t0) in
  let reps = max 1 (min 1_000_000 (int_of_float (batch_ns /. once))) in
  measure_with ~trials ~reps f

(* Minor-heap words allocated per call: the sketch hot paths are meant to
   allocate nothing, and the committed rows make that a tracked number
   rather than a hope. *)
let minor_words_per_op ?(reps = 1024) f =
  ignore (Sys.opaque_identity (f ()));
  let w0 = Gc.minor_words () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. w0) /. float_of_int reps

(* ------------------------------------------------------------------ *)
(* JSON output (hand-rolled; no JSON dependency in the tree)           *)
(* ------------------------------------------------------------------ *)

type jfield = S of string | F of float | I of int | B of bool

let jfield_to_string (k, v) =
  let value =
    match v with
    | S s -> Printf.sprintf "%S" s
    | F f -> if Float.is_finite f then Printf.sprintf "%.6g" f else "null"
    | I i -> string_of_int i
    | B b -> if b then "true" else "false"
  in
  Printf.sprintf "%S: %s" k value

let write_json ?(command = "dune exec bench/main.exe -- perf") ~path ~suite ~smoke results =
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  %s,\n" (jfield_to_string ("schema", S "ssr-perf/1"));
  Printf.fprintf oc "  %s,\n" (jfield_to_string ("suite", S suite));
  Printf.fprintf oc "  %s,\n" (jfield_to_string ("command", S command));
  Printf.fprintf oc "  %s,\n" (jfield_to_string ("smoke", B smoke));
  Printf.fprintf oc "  \"results\": [\n";
  List.iteri
    (fun i fields ->
      Printf.fprintf oc "    {%s}%s\n"
        (String.concat ", " (List.map jfield_to_string fields))
        (if i = List.length results - 1 then "" else ","))
    results;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote %s (%d results)\n%!" path (List.length results)

let ops_fields name ~ns extra =
  (("name", S name) :: extra)
  @ [ ("ns_per_op", F ns); ("ops_per_sec", F (1e9 /. ns)) ]

let latency_fields name ~ns extra =
  (("name", S name) :: extra) @ [ ("ms_per_op", F (ns /. 1e6)) ]

(* ------------------------------------------------------------------ *)
(* Sketch suite                                                        *)
(* ------------------------------------------------------------------ *)

let sketch_suite ~smoke ~trials =
  let rng = Prng.create ~seed in
  let results = ref [] in
  let push r = results := r :: !results in

  (* Hash throughput over the widths the protocols use: 8-byte integer
     keys and the wide serialized-child keys of the nested protocols. *)
  List.iter
    (fun key_len ->
      let fn = Hashing.make ~seed ~tag:0x7E57 in
      let keys =
        Array.init 256 (fun i ->
            let b = Bytes.create key_len in
            for j = 0 to key_len - 1 do
              Bytes.set b j (Char.chr ((i + (j * 131)) land 0xFF))
            done;
            b)
      in
      let i = ref 0 in
      let ns =
        measure ~trials (fun () ->
            incr i;
            Hashing.hash_bytes fn keys.(!i land 255))
      in
      push
        (ops_fields "hash_bytes" ~ns
           [ ("key_len", I key_len); ("mb_per_sec", F (float_of_int key_len /. ns *. 953.674)) ]))
    [ 8; 64 ];

  (* IBLT insert throughput: cost per insert is independent of load but
     not of table size (cache misses), so the row set spans in-cache and
     out-of-cache tables. mw_per_op tracks minor-heap allocation per
     insert — the packed-cell fast path is designed to allocate zero. *)
  let insert_cells =
    if smoke then [ 128; 1024; 65536 ] else [ 128; 1024; 8192; 16384; 65536; 262144 ]
  in
  List.iter
    (fun cells ->
      let prm : Iblt.params = { cells; k = 4; key_len = 8; seed } in
      let t = Iblt.create prm in
      let i = ref 0 in
      let op () =
        incr i;
        Iblt.insert_int t ((!i * 0x9E3779B1) land max_int)
      in
      let ns = measure ~trials op in
      let mw = minor_words_per_op op in
      push
        (ops_fields "iblt_insert" ~ns
           [ ("cells", I cells); ("k", I 4); ("key_len", I 8); ("mw_per_op", F mw) ]))
    insert_cells;

  (* Narrow checksums shrink the cell, so more of the table fits per cache
     line; one row pins the 16-bit-width insert cost next to the default. *)
  (let prm : Iblt.params = { cells = 65536; k = 4; key_len = 8; seed } in
   let t = Iblt.create ~check_bits:16 prm in
   let i = ref 0 in
   let op () =
     incr i;
     Iblt.insert_int t ((!i * 0x9E3779B1) land max_int)
   in
   let ns = measure ~trials op in
   push
     (ops_fields "iblt_insert" ~ns
        [ ("cells", I 65536); ("k", I 4); ("key_len", I 8); ("check_bits", I 16) ]));

  (* Whole-table build through the serial insert loop, at a size where the
     table outsizes L2. *)
  let build_shapes =
    if smoke then [ (65536, 65536) ] else [ (65536, 100_000); (262144, 1_000_000) ]
  in
  List.iter
    (fun (cells, n) ->
      let prm : Iblt.params = { cells; k = 4; key_len = 8; seed } in
      let xs = Array.init n (fun i -> (i * 0x9E3779B1) land max_int) in
      let build_trials = max 3 (trials / 3) in
      let ns_loop =
        measure_with ~trials:build_trials ~reps:1 (fun () ->
            let t = Iblt.create prm in
            Array.iter (Iblt.insert_int t) xs;
            t)
      in
      push
        (ops_fields "iblt_build" ~ns:(ns_loop /. float_of_int n)
           [ ("cells", I cells); ("n", I n); ("method", S "loop") ]))
    build_shapes;

  (* Decode (peel) latency at the paper's ~2x cells-per-difference sizing. *)
  let decode_ds = if smoke then [ 32; 128 ] else [ 32; 128; 512 ] in
  List.iter
    (fun d ->
      let prm : Iblt.params =
        { cells = Iblt.recommended_cells ~k:4 ~diff_bound:d; k = 4; key_len = 8; seed }
      in
      let t = Iblt.create prm in
      Iset.iter (fun x -> Iblt.insert_int t x)
        (Iset.random_subset rng ~universe:(1 lsl 40) ~size:d);
      (match Iblt.decode t with
      | Ok _ -> ()
      | Error `Peel_stuck -> Printf.printf "  (warning: decode d=%d stuck; timing failure path)\n" d);
      let ns = measure ~trials (fun () -> Iblt.decode t) in
      push
        (ops_fields "iblt_decode" ~ns
           [ ("cells", I (Iblt.params t).Iblt.cells); ("d", I d); ("k", I 4); ("key_len", I 8) ]))
    decode_ds;

  (* End-to-end: the four set-of-sets protocols on one fixed workload. *)
  let u = 1 lsl 16 in
  let s = if smoke then 16 else 32 in
  let child_size = if smoke then 24 else 48 in
  let edits = 6 in
  let wl_rng = Prng.create ~seed:(Prng.derive ~seed ~tag:0x50F) in
  let bob = Parent.random wl_rng ~universe:u ~children:s ~child_size in
  let alice, _ = Parent.perturb wl_rng ~universe:u ~edits bob in
  let d = max edits (Parent.relaxed_matching_cost alice bob) in
  let h = child_size + edits in
  List.iter
    (fun kind ->
      let op () =
        Protocol.reconcile_known kind ~seed:(Prng.derive ~seed ~tag:0xE2E) ~d ~u ~h ~alice ~bob ()
      in
      let ns = measure ~trials ~batch_ns:5e7 op in
      (* Minor-words per whole-protocol run: encoding wins show up here as
         allocation drops, not just time. *)
      let mw = minor_words_per_op ~reps:8 op in
      push
        (latency_fields "sos_protocol" ~ns
           [ ("protocol", S (Protocol.name kind)); ("children", I s); ("child_size", I child_size);
             ("edits", I edits); ("mw_per_op", F mw) ]))
    Protocol.all;

  (* The per-child fold the nested-protocol passes bottom out in (once per
     cascade level in the same walk, each party once): encode a chunk of
     64 children four at a time into reused key buffers and insert each
     group into an outer table. One row for the fold as every single
     attempt runs it, and one for a pass served from a request's memo, as
     a later rung of Resilient's ladder finds it. Figures are per child;
     the folds are staged once, as a pass stages them. *)
  (let module Encoding = Ssr_core.Encoding in
   let cfg = { Encoding.child_cells = 64; child_k = 3; hash_bits = 16; seed } in
   let chunk = 64 in
   let kids =
     Array.init chunk (fun _ -> Iset.random_subset rng ~universe:(1 lsl 30) ~size:24)
   in
   let outer =
     Iblt.create
       { cells = Iblt.recommended_cells ~k:4 ~diff_bound:128; k = 4;
         key_len = Encoding.key_length cfg; seed }
   in
   let memo = Ssr_core.Enc_cache.create () in
   List.iter
     (fun (mode, fold) ->
       let op () = fold outer kids in
       op ();
       let per_child x = x /. float_of_int chunk in
       let ns = per_child (measure ~trials op) in
       let mw = per_child (minor_words_per_op ~reps:64 op) in
       push
         (ops_fields "child_encode" ~ns
            [ ("cells", I 64); ("child_size", I 24); ("chunk", I chunk); ("mode", S mode);
              ("mw_per_op", F mw) ]))
     [ ("fold", Encoding.fold cfg); ("memo_hit", Encoding.fold ~memo cfg) ]);

  (* The iblt-of-iblts outer insert at bulk_nested's shape (d = 64): a
     268-cell table of 2,807-byte keys, each with ~21 nonzero words (the
     measured mean), inserted through [add_all] so keys hash four at a
     time and each cell update XORs only the nonzero words. Per key. *)
  (let key_len = 2807 and nonzero = 21 and batch = 64 in
   let prm : Iblt.params =
     { cells = Iblt.recommended_cells ~k:4 ~diff_bound:128; k = 4; key_len; seed }
   in
   let t = Iblt.create prm in
   let keys =
     Array.init batch (fun _ ->
         let key = Bytes.make key_len '\000' in
         for _ = 1 to nonzero do
           Bytes.set_int64_le key (8 * Prng.int_below rng (key_len / 8)) (Prng.next_int64 rng)
         done;
         key)
   in
   let op () = Iblt.add_all t keys in
   let ns = measure ~trials op /. float_of_int batch in
   let mw = minor_words_per_op op /. float_of_int batch in
   push
     (ops_fields "iblt_insert" ~ns
        [ ("cells", I prm.cells); ("k", I 4); ("key_len", I key_len);
          ("nonzero_words", I nonzero); ("mw_per_op", F mw) ]));

  (* The rateless codec at lossy_unknown_d's set shape: 2·10⁴ keys a side
     differing in d, streamed as the protocol's doubling ramp of windows
     (32, 64, ... cells) up to the one after which Bob decodes. One op is a
     fresh source generating the ramp (sender) or a fresh decoder
     absorbing it (receiver); the walk steps of one op are exact. *)
  (let module Rateless = Ssr_sketch.Rateless in
   let module Metrics = Ssr_obs.Metrics in
   let n = 20_000 in
   List.iter
     (fun d ->
       let size = n + d - (d / 2) in
       let keys = Iset.to_array (Iset.random_subset rng ~universe:(1 lsl 40) ~size) in
       let bob = Array.sub keys 0 n and alice = Array.sub keys (d / 2) n in
       let windows =
         let src = Rateless.source_of_ints ~seed alice in
         let dec = Rateless.decoder_of_ints ~seed bob in
         let rec ramp lo w =
           ignore (Rateless.absorb dec ~lo (Rateless.cells src ~lo ~hi:(lo + w)));
           let decoded = Rateless.decoded_ints dec <> None in
           (lo, lo + w) :: (if decoded then [] else ramp (lo + w) (min 8192 (2 * w)))
         in
         ramp 0 32
       in
       let send () =
         let src = Rateless.source_of_ints ~seed alice in
         List.map (fun (lo, hi) -> (lo, Rateless.cells src ~lo ~hi)) windows
       in
       let stream = send () in
       let receive () =
         let dec = Rateless.decoder_of_ints ~seed bob in
         List.iter (fun (lo, cells) -> ignore (Rateless.absorb dec ~lo cells)) stream
       in
       let row name op =
         let before = Metrics.snapshot () in
         op ();
         let steps = Metrics.counter_value (Metrics.diff ~before ~after:(Metrics.snapshot ())) in
         let ns = measure ~trials op in
         push
           (latency_fields name ~ns
              [ ("n", I n); ("d", I d); ("cells", I (List.fold_left (fun _ (_, hi) -> hi) 0 windows));
                ("walk_steps", I (steps "rateless.walk_steps"));
                ("key_walk_steps", I (steps "rateless.key_walk_steps")) ])
       in
       row "rateless_cells" (fun () -> ignore (send ()));
       row "rateless_absorb" receive)
     [ 16; 256; 2048 ]);

  (* Frame CRC over one iblt-of-iblts payload at bulk_nested's shape
     (268 cells x 2,819 bytes): every message pays it at both ends. *)
  (let len = 268 * 2819 in
   let buf = Bytes.init len (fun i -> Char.chr ((i * 131) land 0xFF)) in
   let ns = measure ~trials (fun () -> Ssr_util.Crc32.digest buf) in
   push
     (ops_fields "crc32" ~ns
        [ ("bytes", I len); ("mb_per_sec", F (float_of_int len /. ns *. 953.674)) ]));
  List.rev !results

(* ------------------------------------------------------------------ *)
(* Field suite                                                         *)
(* ------------------------------------------------------------------ *)

let field_suite ~smoke ~trials =
  let rng = Prng.create ~seed:(Prng.derive ~seed ~tag:0xF1E1D) in
  let results = ref [] in
  let push r = results := r :: !results in

  (* Scalar multiply: the bottom of every field loop. *)
  let xs = Array.init 256 (fun _ -> Gf61.random rng) in
  let i = ref 0 in
  let ns =
    measure ~trials (fun () ->
        incr i;
        Gf61.mul xs.(!i land 255) xs.((!i + 1) land 255))
  in
  push (ops_fields "gf61_mul" ~ns []);

  let degrees = if smoke then [ 16; 64 ] else [ 16; 64; 256; 1024 ] in

  (* Distinct roots for a degree-D polynomial that splits completely: the
     paper's characteristic-polynomial decode (Thm 2.3), whose cost is
     dominated by powmod with exponent ~2^61 inside linear_part. *)
  List.iter
    (fun deg ->
      let roots =
        Array.init deg (fun j -> 1 + (j * 7_919) + ((j * j) land 0xFFF))
      in
      let f = Poly.from_roots roots in
      let x = Poly.of_coeffs [| 0; 1 |] in
      let pm_ns =
        measure ~trials ~batch_ns:5e7 (fun () -> Poly.powmod x Gf61.p ~modulus:f)
      in
      push (latency_fields "powmod" ~ns:pm_ns [ ("degree", I deg); ("exponent_bits", I 61) ]);
      let root_rng = Prng.create ~seed:(Prng.derive ~seed ~tag:(0x1007 + deg)) in
      let dr_ns = measure ~trials ~batch_ns:5e7 (fun () -> Roots.distinct_roots root_rng f) in
      push (latency_fields "distinct_roots" ~ns:dr_ns [ ("degree", I deg) ]))
    degrees;
  List.rev !results

(* ------------------------------------------------------------------ *)
(* Baseline regression gate                                            *)
(* ------------------------------------------------------------------ *)

(* CI gate over the timing suites (sketch and field): committed
   smoke-mode baselines live in bench/baseline/BENCH_<suite>.json
   and a >10% slowdown of any matching row's median fails the run with
   exit 2. Because shared-core runners jitter far more than 10%, the
   committed baseline is a conservative envelope — the row-wise worst
   median over many runs (the generating command is recorded in the
   file) — so the gate trips on real kernel regressions, not scheduler
   noise. Rows are matched on the name plus every identity field (degree,
   cells, protocol, ...); the measured float fields are what is compared
   (ms_per_op when present, ns_per_op otherwise). Full-mode runs print the
   same comparison for information only: their medians come from more
   trials than the committed smoke numbers, and their larger workloads
   have no baseline row at all. *)

(* Keys that always parse back from a baseline file as measurements (F),
   never as identity — integer-valued floats would otherwise round-trip as
   identity ints and quietly orphan every row of their suite. *)
let measured_keys =
  [
    "ns_per_op"; "ops_per_sec"; "ms_per_op"; "mb_per_sec"; "mw_per_op";
  ]

(* Stable row key: name plus every string/int field, sorted. *)
let identity_of_fields fields =
  List.filter_map
    (fun (k, v) ->
      match v with
      | S s -> Some (k ^ "=" ^ s)
      | I i -> Some (k ^ "=" ^ string_of_int i)
      | F _ | B _ -> None)
    fields
  |> List.sort compare |> String.concat " "

(* Gate metric, in preference order. *)
let metric_of_fields fields =
  match List.assoc_opt "ms_per_op" fields with
  | Some (F v) -> Some ("ms_per_op", v)
  | _ -> (
    match List.assoc_opt "ns_per_op" fields with
    | Some (F v) -> Some ("ns_per_op", v)
    | _ -> None)

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Parse one result row back from its JSON line (the writer above emits one
   row per line). Keys in [measured_keys] parse as floats; every other
   numeric field is an identity int. Unparseable values are skipped, which
   at worst drops a row from the comparison rather than failing the run. *)
let parse_result_line line =
  let n = String.length line in
  let fields = ref [] in
  let i = ref 0 in
  while !i < n do
    if line.[!i] <> '"' then incr i
    else
      match String.index_from_opt line (!i + 1) '"' with
      | None -> i := n
      | Some stop ->
        let key = String.sub line (!i + 1) (stop - !i - 1) in
        let j = ref (stop + 1) in
        while !j < n && (line.[!j] = ':' || line.[!j] = ' ') do
          incr j
        done;
        if !j = stop + 1 then i := stop + 1 (* stray quoted token, not a key *)
        else if !j < n && line.[!j] = '"' then (
          match String.index_from_opt line (!j + 1) '"' with
          | None -> i := n
          | Some e ->
            fields := (key, S (String.sub line (!j + 1) (e - !j - 1))) :: !fields;
            i := e + 1)
        else begin
          let s = !j in
          let k = ref s in
          while
            !k < n
            &&
            match line.[!k] with
            | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
            | _ -> false
          do
            incr k
          done;
          if !k > s then begin
            let tok = String.sub line s (!k - s) in
            (match
               if List.mem key measured_keys then
                 Option.map (fun f -> F f) (float_of_string_opt tok)
               else
                 match int_of_string_opt tok with
                 | Some iv -> Some (I iv)
                 | None -> Option.map (fun f -> F f) (float_of_string_opt tok)
             with
            | Some v -> fields := (key, v) :: !fields
            | None -> ());
            i := !k
          end
          else i := !j + 1 (* true/false/null *)
        end
  done;
  List.rev !fields

let read_baseline path =
  let ic = open_in path in
  let rows = ref [] in
  (try
     while true do
       let line = input_line ic in
       if contains_substring line "\"name\"" then begin
         let fields = parse_result_line line in
         match metric_of_fields fields with
         | Some (_, v) -> rows := (identity_of_fields fields, v) :: !rows
         | None -> ()
       end
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !rows

let check_suite_baseline ~suite results =
  let path = "bench/baseline/BENCH_" ^ suite ^ ".json" in
  if not (Sys.file_exists path) then begin
    Printf.printf "%s: no baseline at %s - skipping regression check\n%!" suite path;
    true
  end
  else begin
    let baseline = read_baseline path in
    Printf.printf "\n%s suite vs %s (gate: >10%% slowdown):\n" suite path;
    Printf.printf "  %-64s %12s %12s %7s\n" "row" "baseline" "now" "ratio";
    let ok = ref true in
    List.iter
      (fun fields ->
        let id = identity_of_fields fields in
        match metric_of_fields fields with
        | None -> ()
        | Some (_, now) -> (
          match List.assoc_opt id baseline with
          | None -> Printf.printf "  %-64s %12s %12.4g %7s\n" id "-" now "(new)"
          | Some base ->
            let ratio = now /. Float.max 1e-9 base in
            let flag = ratio > 1.10 in
            if flag then ok := false;
            Printf.printf "  %-64s %12.4g %12.4g %6.2fx%s\n" id base now ratio
              (if flag then "  REGRESSION" else "")))
      results;
    (* A baseline row this run did not produce (a removed measurement, or
       a full-mode row on a smoke run) is listed, not failed. *)
    let ran = List.map identity_of_fields results in
    List.iter
      (fun (id, base) ->
        if not (List.mem id ran) then Printf.printf "  %-64s %12.4g %12s %7s\n" id base "-" "(not run)")
      baseline;
    if !ok then Printf.printf "%s: baseline check OK (threshold 10%%)\n%!" suite
    else Printf.printf "%s: FAIL - medians regressed >10%% vs %s\n%!" suite path;
    !ok
  end

(* ------------------------------------------------------------------ *)

let run ~smoke =
  let trials = if smoke then 3 else 9 in
  Printf.printf "perf: %s mode, %d trials per point, monotonic clock\n%!"
    (if smoke then "smoke" else "full")
    trials;
  let t0 = now_ns () in
  let sketch = sketch_suite ~smoke ~trials in
  write_json ~path:"BENCH_sketch.json" ~suite:"sketch" ~smoke sketch;
  let field = field_suite ~smoke ~trials in
  write_json ~path:"BENCH_field.json" ~suite:"field" ~smoke field;
  let ok_sketch = check_suite_baseline ~suite:"sketch" sketch in
  let ok_field = check_suite_baseline ~suite:"field" field in
  Printf.printf "perf: done in %.1f s\n" (elapsed_ns t0 /. 1e9);
  (* The exit-2 gate applies to smoke mode only: that is what CI runs, and
     the committed baselines are smoke medians from the same machine class.
     Full-mode comparisons above are informational. *)
  if smoke && not (ok_sketch && ok_field) then exit 2
