(* Tests for the set-of-sets reconciliation protocols (paper §3). *)

module Prng = Ssr_util.Prng
module Iset = Ssr_util.Iset
module Comm = Ssr_setrecon.Comm
module Multiset = Ssr_setrecon.Multiset
module Parent = Ssr_core.Parent
module Direct = Ssr_core.Direct
module Encoding = Ssr_core.Encoding
module Naive = Ssr_core.Naive
module Ioi = Ssr_core.Iblt_of_iblts
module Cascade = Ssr_core.Cascade
module Multiround = Ssr_core.Multiround
module Protocol = Ssr_core.Protocol
module Sos_multiset = Ssr_core.Sos_multiset
module Sos3 = Ssr_core.Sos3

let seed = 0x5035EED0L

(* Standard workload: a random parent and a perturbation of it. *)
let workload rng ~u ~s ~child_size ~edits =
  let bob = Parent.random rng ~universe:u ~children:s ~child_size in
  let alice, _log = Parent.perturb rng ~universe:u ~edits bob in
  (alice, bob)

(* ---------- Parent ---------- *)

let test_parent_canonical () =
  let c1 = Iset.of_list [ 1; 2 ] and c2 = Iset.of_list [ 3 ] in
  let a = Parent.of_children [ c1; c2; c1 ] in
  Alcotest.(check int) "dedup" 2 (Parent.cardinal a);
  let b = Parent.of_children [ c2; c1 ] in
  Alcotest.(check bool) "order-insensitive" true (Parent.equal a b);
  Alcotest.(check int) "total elements" 3 (Parent.total_elements a);
  Alcotest.(check int) "max child size" 2 (Parent.max_child_size a)

let test_parent_hash_sensitivity () =
  let a = Parent.of_children [ Iset.of_list [ 1; 2 ]; Iset.of_list [ 3 ] ] in
  let b = Parent.of_children [ Iset.of_list [ 1 ]; Iset.of_list [ 2; 3 ] ] in
  (* Same multiset of elements, different grouping: hashes must differ. *)
  Alcotest.(check bool) "grouping matters" true (Parent.hash ~seed a <> Parent.hash ~seed b);
  Alcotest.(check int) "deterministic" (Parent.hash ~seed a) (Parent.hash ~seed a)

let test_parent_symmetric_diff () =
  let c1 = Iset.of_list [ 1 ] and c2 = Iset.of_list [ 2 ] and c3 = Iset.of_list [ 3 ] in
  let a = Parent.of_children [ c1; c2 ] and b = Parent.of_children [ c2; c3 ] in
  let a_only, b_only = Parent.symmetric_diff a b in
  Alcotest.(check int) "a_only" 1 (List.length a_only);
  Alcotest.(check bool) "a_only = c1" true (Iset.equal (List.hd a_only) c1);
  Alcotest.(check int) "b_only" 1 (List.length b_only);
  Alcotest.(check bool) "b_only = c3" true (Iset.equal (List.hd b_only) c3)

let test_parent_relaxed_cost () =
  let a = Parent.of_children [ Iset.of_list [ 1; 2; 3 ]; Iset.of_list [ 10 ] ] in
  let b = Parent.of_children [ Iset.of_list [ 1; 2; 4 ]; Iset.of_list [ 10 ] ] in
  (* {1,2,3} vs {1,2,4}: 2 differing elements, each side charges its best. *)
  Alcotest.(check int) "cost" 4 (Parent.relaxed_matching_cost a b);
  Alcotest.(check int) "identical" 0 (Parent.relaxed_matching_cost a a)

let test_parent_perturb_cost_bounded () =
  let rng = Prng.create ~seed in
  for trial = 1 to 20 do
    let bob = Parent.random rng ~universe:10_000 ~children:20 ~child_size:15 in
    let edits = 1 + (trial mod 12) in
    let alice, log = Parent.perturb rng ~universe:10_000 ~edits bob in
    Alcotest.(check int) "edit log length" edits (List.length log);
    Alcotest.(check bool) "cost <= 2*edits" true (Parent.relaxed_matching_cost alice bob <= 2 * edits)
  done

(* ---------- Direct encoding ---------- *)

let test_direct_bitmap_roundtrip () =
  let cfg : Direct.config = { u = 64; h = 60 } in
  Alcotest.(check bool) "bitmap mode" true (Direct.mode cfg = Direct.Bitmap);
  let c = Iset.of_list [ 0; 5; 63 ] in
  Alcotest.(check bool) "roundtrip" true (Direct.decode cfg (Direct.encode cfg c) = Some c);
  Alcotest.(check bool) "empty" true (Direct.decode cfg (Direct.encode cfg Iset.empty) = Some Iset.empty)

let test_direct_list_roundtrip () =
  let cfg : Direct.config = { u = 1_000_000; h = 4 } in
  Alcotest.(check bool) "list mode" true (Direct.mode cfg = Direct.Element_list);
  let c = Iset.of_list [ 0; 999_999; 123 ] in
  Alcotest.(check bool) "roundtrip" true (Direct.decode cfg (Direct.encode cfg c) = Some c);
  let full = Iset.of_list [ 1; 2; 3; 4 ] in
  Alcotest.(check bool) "full child" true (Direct.decode cfg (Direct.encode cfg full) = Some full)

let test_direct_rejects_invalid () =
  let cfg : Direct.config = { u = 100; h = 3 } in
  Alcotest.(check bool) "oversized child rejected" true
    (try
       ignore (Direct.encode cfg (Iset.of_list [ 1; 2; 3; 4 ]));
       false
     with Invalid_argument _ -> true);
  (* Garbage bytes must not decode. *)
  let garbage = Bytes.make (Direct.key_length cfg) '\xAB' in
  Alcotest.(check bool) "garbage rejected" true (Direct.decode cfg garbage = None)

let test_direct_width_choice () =
  (* min(h log u, u) bits: small u -> bitmap narrower; big u, small h -> list. *)
  let small : Direct.config = { u = 32; h = 20 } in
  let big : Direct.config = { u = 1 lsl 20; h = 3 } in
  Alcotest.(check int) "bitmap width" 4 (Direct.key_length small);
  Alcotest.(check int) "list width" 9 (Direct.key_length big)

(* ---------- Child encodings ---------- *)

let enc_cfg : Encoding.config = { child_cells = 16; child_k = 3; hash_bits = 30; seed }

let test_encoding_roundtrip () =
  let c = Iset.of_list [ 5; 17; 900 ] in
  let key = Encoding.encode enc_cfg c in
  Alcotest.(check int) "key width" (Encoding.key_length enc_cfg) (Bytes.length key);
  let table, h = Encoding.decode enc_cfg key in
  Alcotest.(check int) "hash preserved" (Encoding.child_hash enc_cfg c) h;
  Alcotest.(check int) "hash_of_key" h (Encoding.hash_of_key enc_cfg key);
  match Ssr_sketch.Iblt.decode_ints table with
  | Ok (pos, neg) ->
    Alcotest.(check (list int)) "elements" [ 5; 17; 900 ] (List.sort compare pos);
    Alcotest.(check (list int)) "no negatives" [] neg
  | Error _ -> Alcotest.fail "child table decode failed"

let test_encoding_try_recover () =
  let bob_child = Iset.of_list [ 1; 2; 3; 4 ] in
  let alice_child = Iset.of_list [ 1; 2; 3; 5 ] in
  let key = Encoding.encode enc_cfg alice_child in
  (match Encoding.try_recover enc_cfg ~alice_key:key ~bob_child with
  | Some c -> Alcotest.(check bool) "recovered alice's child" true (Iset.equal c alice_child)
  | None -> Alcotest.fail "should recover");
  (* A far-away child must be rejected, not misrecovered. *)
  let far = Iset.of_list [ 100; 200; 300; 400; 500; 600; 700; 800; 900; 1000; 1100; 1200 ] in
  match Encoding.try_recover enc_cfg ~alice_key:(Encoding.encode enc_cfg far) ~bob_child with
  | None -> ()
  | Some c -> Alcotest.(check bool) "only exact recovery tolerated" true (Iset.equal c far)

(* ---------- Protocol round trips ---------- *)

let u = 50_000
let h = 40

let run_protocol kind ~alice ~bob ~d ~tag =
  Protocol.reconcile_known kind ~seed:(Prng.derive ~seed ~tag) ~d ~u ~h ~alice ~bob ()

let roundtrip_test kind () =
  let rng = Prng.create ~seed in
  let failures = ref 0 in
  let trials = 15 in
  for trial = 1 to trials do
    let edits = 1 + (trial mod 8) in
    let alice, bob = workload rng ~u ~s:25 ~child_size:20 ~edits in
    let d = max edits (Parent.relaxed_matching_cost alice bob) in
    match run_protocol kind ~alice ~bob ~d ~tag:trial with
    | Ok o ->
      if not (Parent.equal o.Protocol.recovered alice) then Alcotest.fail "wrong recovery"
    | Error _ -> incr failures
  done;
  (* The theorems promise 1 - 1/poly success; tiny workloads see a few
     percent. Wrong answers are never tolerated, failures rarely. *)
  Alcotest.(check bool) (Printf.sprintf "failures=%d/%d" !failures trials) true (!failures <= 1)

let identical_test kind () =
  let rng = Prng.create ~seed in
  let p = Parent.random rng ~universe:u ~children:10 ~child_size:12 in
  match run_protocol kind ~alice:p ~bob:p ~d:2 ~tag:777 with
  | Ok o -> Alcotest.(check bool) "unchanged" true (Parent.equal o.Protocol.recovered p)
  | Error _ -> Alcotest.fail "failed on identical parents"

let single_edit_test kind () =
  let rng = Prng.create ~seed in
  let bob = Parent.random rng ~universe:u ~children:12 ~child_size:10 in
  let alice, _ = Parent.perturb rng ~universe:u ~edits:1 bob in
  match run_protocol kind ~alice ~bob ~d:1 ~tag:888 with
  | Ok o -> Alcotest.(check bool) "recovered" true (Parent.equal o.Protocol.recovered alice)
  | Error _ -> Alcotest.fail "failed on single edit"

let unknown_d_test kind () =
  let rng = Prng.create ~seed in
  let ok = ref 0 in
  let trials = 8 in
  for trial = 1 to trials do
    let edits = 1 + (3 * trial mod 10) in
    let alice, bob = workload rng ~u ~s:20 ~child_size:15 ~edits in
    match Protocol.reconcile_unknown kind ~seed:(Prng.derive ~seed ~tag:(1000 + trial)) ~u ~h ~alice ~bob () with
    | Ok o -> if Parent.equal o.Protocol.recovered alice then incr ok
    | Error _ -> ()
  done;
  Alcotest.(check bool) (Printf.sprintf "ok=%d/%d" !ok trials) true (!ok >= trials - 1)

let round_counts () =
  let rng = Prng.create ~seed in
  let alice, bob = workload rng ~u ~s:20 ~child_size:15 ~edits:4 in
  let d = max 4 (Parent.relaxed_matching_cost alice bob) in
  let rounds kind =
    match run_protocol kind ~alice ~bob ~d ~tag:31337 with
    | Ok o -> o.Protocol.stats.Comm.rounds
    | Error _ -> -1
  in
  Alcotest.(check int) "naive: 1 round" 1 (rounds Protocol.Naive);
  Alcotest.(check int) "iblt-of-iblts: 1 round" 1 (rounds Protocol.Iblt_of_iblts);
  Alcotest.(check int) "cascade: 1 round" 1 (rounds Protocol.Cascade);
  Alcotest.(check int) "multiround: 3 rounds" 3 (rounds Protocol.Multiround)

let test_structured_beats_naive_comm () =
  (* The point of §3.2: when h log u >> d log u, nested sketches transmit
     far less than direct child encodings. *)
  let rng = Prng.create ~seed in
  let big_u = 1 lsl 24 in
  let bob = Parent.random rng ~universe:big_u ~children:30 ~child_size:200 in
  let alice, _ = Parent.perturb rng ~universe:big_u ~edits:3 bob in
  let d = max 3 (Parent.relaxed_matching_cost alice bob) in
  let bits kind =
    match Protocol.reconcile_known kind ~seed ~d ~u:big_u ~h:220 ~alice ~bob () with
    | Ok o -> o.Protocol.stats.Comm.bits_total
    | Error _ -> Alcotest.fail ("protocol failed: " ^ Protocol.name kind)
  in
  let naive = bits Protocol.Naive in
  let cascade = bits Protocol.Cascade in
  let multiround = bits Protocol.Multiround in
  Alcotest.(check bool)
    (Printf.sprintf "cascade (%d) < naive (%d)" cascade naive)
    true (cascade < naive);
  Alcotest.(check bool)
    (Printf.sprintf "multiround (%d) < naive (%d)" multiround naive)
    true (multiround < naive)

let test_failure_detected_not_silent () =
  (* Understate d wildly: protocols must fail or answer correctly. *)
  let rng = Prng.create ~seed in
  List.iter
    (fun kind ->
      for trial = 1 to 5 do
        let alice, bob = workload rng ~u ~s:20 ~child_size:15 ~edits:30 in
        match run_protocol kind ~alice ~bob ~d:1 ~tag:(2000 + trial) with
        | Ok o ->
          Alcotest.(check bool)
            ("no silent corruption: " ^ Protocol.name kind)
            true
            (Parent.equal o.Protocol.recovered alice)
        | Error _ -> ()
      done)
    Protocol.all

let test_whole_child_replacement () =
  (* A child completely rewritten (every element changed). *)
  let rng = Prng.create ~seed in
  let bob = Parent.random rng ~universe:u ~children:8 ~child_size:6 in
  let kids = Parent.children bob in
  let replaced = Iset.of_list [ 49_001; 49_002; 49_003; 49_004; 49_005; 49_006 ] in
  let alice = Parent.of_children (replaced :: List.tl kids) in
  let d = Parent.relaxed_matching_cost alice bob in
  List.iter
    (fun kind ->
      match run_protocol kind ~alice ~bob ~d ~tag:4242 with
      | Ok o ->
        Alcotest.(check bool) ("recovered: " ^ Protocol.name kind) true
          (Parent.equal o.Protocol.recovered alice)
      | Error _ -> Alcotest.fail ("failed: " ^ Protocol.name kind))
    [ Protocol.Naive; Protocol.Iblt_of_iblts; Protocol.Cascade; Protocol.Multiround ]

let test_cascade_levels_structure () =
  let rng = Prng.create ~seed in
  let alice, bob = workload rng ~u ~s:30 ~child_size:20 ~edits:10 in
  let d = max 10 (Parent.relaxed_matching_cost alice bob) in
  match Cascade.reconcile_known ~seed ~d ~u ~h ~alice ~bob () with
  | Ok o ->
    Alcotest.(check bool) "levels = ceil log2 min(d,h)" true
      (o.Cascade.levels = Ssr_util.Bits.ceil_log2 (min d h));
    Alcotest.(check bool) "no star when d < h" true (not o.Cascade.used_star);
    let total = Array.fold_left ( + ) 0 o.Cascade.recovered_per_level in
    Alcotest.(check bool) "some children recovered" true (total > 0);
    Alcotest.(check int) "per-level counts sum to the recovered children"
      (List.length o.Cascade.delta.Parent.a_only) total;
    Alcotest.(check bool) "recovered" true
      (Parent.equal (Parent.apply_delta bob o.Cascade.delta) alice)
  | Error _ -> Alcotest.fail "cascade failed"

let test_cascade_star_regime () =
  (* h <= d forces the T* backstop. *)
  let rng = Prng.create ~seed in
  let bob = Parent.random rng ~universe:2_000 ~children:15 ~child_size:4 in
  let alice, _ = Parent.perturb rng ~universe:2_000 ~edits:12 bob in
  let d = max 12 (Parent.relaxed_matching_cost alice bob) in
  match Cascade.reconcile_known ~seed ~d ~u:2_000 ~h:6 ~alice ~bob () with
  | Ok o ->
    Alcotest.(check bool) "star used" true o.Cascade.used_star;
    Alcotest.(check bool) "recovered" true
      (Parent.equal (Parent.apply_delta bob o.Cascade.delta) alice)
  | Error _ -> Alcotest.fail "cascade with star failed"

let test_multiround_uses_cpi_for_small_diffs () =
  let rng = Prng.create ~seed in
  (* Many children with 1-element differences and a large total d: per-child
     estimates fall below sqrt d, so CPI should be chosen. *)
  let bob = Parent.random rng ~universe:u ~children:40 ~child_size:25 in
  let alice, _ = Parent.perturb rng ~universe:u ~edits:16 bob in
  let d = 64 in
  match Multiround.reconcile_known ~seed ~d ~alice ~bob () with
  | Ok o ->
    Alcotest.(check bool) "recovered" true
      (Parent.equal (Parent.apply_delta bob o.Multiround.delta) alice);
    Alcotest.(check bool) "cpi used" true (o.Multiround.cpi_children > 0)
  | Error _ -> Alcotest.fail "multiround failed"

(* ---------- Sets of multisets ---------- *)

let test_sos_multiset_roundtrip () =
  let mk pairs = Multiset.of_pairs pairs in
  let bob =
    Sos_multiset.of_children [ mk [ (1, 2); (5, 1) ]; mk [ (2, 3) ]; mk [ (7, 1); (8, 1) ] ]
  in
  let alice =
    Sos_multiset.of_children [ mk [ (1, 3); (5, 1) ]; mk [ (2, 3) ]; mk [ (7, 1); (8, 1); (9, 1) ] ]
  in
  let d = Sos_multiset.diff_bound alice bob in
  Alcotest.(check bool) "diff bound positive" true (d > 0);
  match Sos_multiset.reconcile Protocol.Cascade ~seed ~d ~u:100 ~alice ~bob () with
  | Ok (recovered, _) -> Alcotest.(check bool) "recovered" true (Sos_multiset.equal recovered alice)
  | Error _ -> Alcotest.fail "sets-of-multisets reconciliation failed"

let test_sos_multiset_duplicates () =
  let mk = Multiset.of_list in
  (* Bob has two identical children; Alice edited one copy. *)
  let c = mk [ 1; 2; 3 ] in
  let bob = Sos_multiset.of_children [ c; c; mk [ 9 ] ] in
  let alice = Sos_multiset.of_children [ c; mk [ 1; 2; 3; 4 ]; mk [ 9 ] ] in
  let d = Sos_multiset.diff_bound alice bob in
  match Sos_multiset.reconcile Protocol.Iblt_of_iblts ~seed ~d:(max 2 d) ~u:100 ~alice ~bob () with
  | Ok (recovered, _) ->
    Alcotest.(check bool) "recovered with duplicates" true (Sos_multiset.equal recovered alice);
    Alcotest.(check int) "three children" 3 (Sos_multiset.cardinal recovered)
  | Error _ -> Alcotest.fail "duplicate-children reconciliation failed"

let test_sos_multiset_identical () =
  let t = Sos_multiset.of_children [ Multiset.of_list [ 1; 1; 2 ] ] in
  match Sos_multiset.reconcile Protocol.Cascade ~seed ~d:1 ~u:10 ~alice:t ~bob:t () with
  | Ok (recovered, _) -> Alcotest.(check bool) "unchanged" true (Sos_multiset.equal recovered t)
  | Error _ -> Alcotest.fail "failed on identical inputs"

(* ---------- Sets of sets of sets (§3.2's future-work recursion) ---------- *)

let sos3_workload rng ~parents ~children ~child_size ~edits =
  let mk () = Parent.random rng ~universe:5_000 ~children ~child_size in
  let bob = Sos3.of_parents (List.init parents (fun _ -> mk ())) in
  let alice = Sos3.perturb rng ~universe:5_000 ~edits bob in
  (alice, bob)

let test_sos3_roundtrip () =
  let rng = Prng.create ~seed in
  let failures = ref 0 in
  let trials = 8 in
  for trial = 1 to trials do
    let edits = 1 + (trial mod 4) in
    let alice, bob = sos3_workload rng ~parents:6 ~children:8 ~child_size:10 ~edits in
    let d3, d2, d1 = Sos3.diff_bounds alice bob in
    match
      Sos3.reconcile_known
        ~seed:(Prng.derive ~seed ~tag:(5000 + trial))
        ~d:(max 1 d1) ~d2:(max 1 d2) ~d3:(max 1 d3) ~alice ~bob ()
    with
    | Ok o ->
      if not (Sos3.equal o.Sos3.recovered alice) then Alcotest.fail "wrong recovery"
    | Error _ -> incr failures
  done;
  Alcotest.(check bool) (Printf.sprintf "failures=%d/%d" !failures trials) true (!failures <= 1)

let test_sos3_identical () =
  let rng = Prng.create ~seed in
  let t = Sos3.of_parents (List.init 4 (fun _ -> Parent.random rng ~universe:1_000 ~children:5 ~child_size:6)) in
  match Sos3.reconcile_known ~seed ~d:2 ~alice:t ~bob:t () with
  | Ok o -> Alcotest.(check bool) "unchanged" true (Sos3.equal o.Sos3.recovered t)
  | Error _ -> Alcotest.fail "failed on identical collections"

let test_sos3_unknown () =
  let rng = Prng.create ~seed in
  let alice, bob = sos3_workload rng ~parents:5 ~children:6 ~child_size:8 ~edits:3 in
  match Sos3.reconcile_unknown ~seed ~alice ~bob () with
  | Ok o -> Alcotest.(check bool) "recovered" true (Sos3.equal o.Sos3.recovered alice)
  | Error _ -> Alcotest.fail "unknown-d sos3 failed"

let test_sos3_diff_bounds () =
  let mk l = Parent.of_children (List.map Iset.of_list l) in
  let p1 = mk [ [ 1; 2 ]; [ 3 ] ] in
  let p1' = mk [ [ 1; 2; 9 ]; [ 3 ] ] in
  let p2 = mk [ [ 7; 8 ] ] in
  let a = Sos3.of_parents [ p1'; p2 ] and b = Sos3.of_parents [ p1; p2 ] in
  let d3, d2, d1 = Sos3.diff_bounds a b in
  Alcotest.(check int) "one differing parent" 1 d3;
  Alcotest.(check int) "one differing child" 1 d2;
  Alcotest.(check int) "one element" 1 d1;
  let z3, z2, _ = Sos3.diff_bounds a a in
  Alcotest.(check int) "self d3" 0 z3;
  Alcotest.(check int) "self d2" 0 z2

let test_sos3_hash_sensitivity () =
  let mk l = Parent.of_children (List.map Iset.of_list l) in
  let a = Sos3.of_parents [ mk [ [ 1 ]; [ 2 ] ] ] in
  let b = Sos3.of_parents [ mk [ [ 1; 2 ] ] ] in
  Alcotest.(check bool) "grouping matters" true (Sos3.hash ~seed a <> Sos3.hash ~seed b)

(* ---------- Replication amplification (§3.2) ---------- *)

let test_amplification_succeeds_under_tight_sizing () =
  (* Undersized sketches fail often; three parallel replicas almost never
     all fail. Compare success rates at the same (tight) d. *)
  let rng = Prng.create ~seed in
  let trials = 20 in
  let single_ok = ref 0 and amplified_ok = ref 0 in
  for trial = 1 to trials do
    let bob = Parent.random rng ~universe:u ~children:20 ~child_size:15 in
    let alice, _ = Parent.perturb rng ~universe:u ~edits:6 bob in
    let d = max 6 (Parent.relaxed_matching_cost alice bob) in
    let s1 = Prng.derive ~seed ~tag:(6000 + trial) in
    (match Protocol.reconcile_known Protocol.Iblt_of_iblts ~seed:s1 ~d ~u ~h ~alice ~bob () with
    | Ok o when Parent.equal o.Protocol.recovered alice -> incr single_ok
    | _ -> ());
    match
      Protocol.reconcile_amplified Protocol.Iblt_of_iblts ~seed:s1 ~d ~u ~h ~replicas:3 ~alice ~bob ()
    with
    | Ok o when Parent.equal o.Protocol.recovered alice -> incr amplified_ok
    | _ -> ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "amplified (%d) >= single (%d)" !amplified_ok !single_ok)
    true
    (!amplified_ok >= !single_ok && !amplified_ok >= trials - 1)

let test_amplification_charges_all_replicas () =
  let rng = Prng.create ~seed in
  let bob = Parent.random rng ~universe:u ~children:10 ~child_size:10 in
  let alice, _ = Parent.perturb rng ~universe:u ~edits:2 bob in
  let one =
    match Protocol.reconcile_known Protocol.Cascade ~seed ~d:4 ~u ~h ~alice ~bob () with
    | Ok o -> o.Protocol.stats.Comm.bits_total
    | Error _ -> Alcotest.fail "single run failed"
  in
  match Protocol.reconcile_amplified Protocol.Cascade ~seed ~d:4 ~u ~h ~replicas:4 ~alice ~bob () with
  | Ok o ->
    Alcotest.(check bool) "recovered" true (Parent.equal o.Protocol.recovered alice);
    Alcotest.(check bool) "~4x the bits" true
      (o.Protocol.stats.Comm.bits_total >= 3 * one && o.Protocol.stats.Comm.bits_total <= 5 * one);
    Alcotest.(check int) "rounds do not stack" 1 o.Protocol.stats.Comm.rounds
  | Error _ -> Alcotest.fail "amplified run failed"

let test_amplification_validation () =
  let p = Parent.of_children [ Iset.of_list [ 1 ] ] in
  Alcotest.(check bool) "replicas >= 1" true
    (try
       ignore (Protocol.reconcile_amplified Protocol.Naive ~seed ~d:1 ~u:10 ~h:5 ~replicas:0 ~alice:p ~bob:p ());
       false
     with Invalid_argument _ -> true)

(* ---------- Multiround primitive ablation ---------- *)

let test_multiround_primitive_ablation () =
  let rng = Prng.create ~seed in
  let bob = Parent.random rng ~universe:u ~children:30 ~child_size:25 in
  let alice, _ = Parent.perturb rng ~universe:u ~edits:10 bob in
  let d = 64 in
  let run primitive =
    match Multiround.reconcile_known ~seed ~d ~primitive ~alice ~bob () with
    | Ok o ->
      Alcotest.(check bool) "recovered" true
        (Parent.equal (Parent.apply_delta bob o.Multiround.delta) alice);
      (o.Multiround.cpi_children, o.Multiround.stats.Comm.bits_total)
    | Error _ -> Alcotest.fail "multiround ablation run failed"
  in
  let cpi_auto, _ = run Multiround.Auto in
  let cpi_iblt, bits_iblt = run Multiround.Always_iblt in
  let cpi_cpi, bits_cpi = run Multiround.Always_cpi in
  Alcotest.(check int) "always_iblt uses no CPI" 0 cpi_iblt;
  Alcotest.(check bool) "always_cpi uses CPI everywhere" true (cpi_cpi > 0);
  Alcotest.(check bool) "auto uses CPI for small diffs" true (cpi_auto > 0);
  (* With small per-child diffs CPI payloads are smaller than IBLT ones. *)
  Alcotest.(check bool) "cpi payloads smaller here" true (bits_cpi < bits_iblt)

(* ---------- qcheck ---------- *)

let parent_gen =
  QCheck.Gen.(
    let child = map Iset.of_list (list_size (int_range 1 12) (int_bound 4_999)) in
    map Parent.of_children (list_size (int_range 2 10) child))

let parent_arb = QCheck.make ~print:(Format.asprintf "%a" Parent.pp) parent_gen

let prop_perturb_then_reconcile kind =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: perturb then reconcile" (Protocol.name kind))
    ~count:25 (QCheck.pair parent_arb QCheck.small_nat) (fun (bob, e) ->
      let edits = 1 + (e mod 6) in
      let rng = Prng.create ~seed:(Int64.of_int (e + 13)) in
      let alice, _ = Parent.perturb rng ~universe:5_000 ~edits bob in
      let d = max edits (Parent.relaxed_matching_cost alice bob) in
      match
        Protocol.reconcile_known kind ~seed:(Int64.of_int (e + 99)) ~d ~u:5_000 ~h:24 ~alice ~bob ()
      with
      | Ok o -> Parent.equal o.Protocol.recovered alice
      | Error _ -> QCheck.assume_fail ())

(* ---------- Scale regression ---------- *)

(* 10^4 children through iblt-of-iblts: the candidate filter on Bob's side
   used to scan the O(d) recovered list once per child (O(s*d) child-set
   equality tests); it is now a fingerprint-keyed table lookup. This pins
   the behavior at a scale where the old scan was the dominant cost, and
   cross-checks the streaming delta against the materialized diff. *)
let test_ioi_ten_thousand_children () =
  let module Datasets = Ssr_apps.Datasets in
  let bob_inst =
    Datasets.zipf
      ~seed:(Prng.derive ~seed ~tag:0x1A4)
      ~parents:10_000 ~universe:(1 lsl 24) ~max_child_size:8 ~alpha:1.0
  in
  let edits = 12 in
  let alice_inst = Datasets.pair ~seed:(Prng.derive ~seed ~tag:0x1A5) ~edits bob_inst in
  let u = alice_inst.Datasets.universe and h = alice_inst.Datasets.max_child_size in
  match
    Protocol.run_known_stream Protocol.Iblt_of_iblts ~comm:(Comm.create ())
      ~seed:(Prng.derive ~seed ~tag:0x1A6)
      ~enc_seed:None ~d:(2 * edits) ~u ~h ~alice:alice_inst.Datasets.stream
      ~bob:bob_inst.Datasets.stream
  with
  | Error `Decode_failure -> Alcotest.fail "10^4-child stream run failed"
  | Ok { Protocol.delta; _ } ->
    let a_ref, b_ref =
      Parent.symmetric_diff
        (Parent.of_stream alice_inst.Datasets.stream)
        (Parent.of_stream bob_inst.Datasets.stream)
    in
    let sort = List.sort Iset.compare in
    List.iter2
      (fun got expect ->
        Alcotest.(check bool) "delta child matches diff" true (Iset.equal got expect))
      (sort (delta.Parent.a_only @ delta.Parent.b_only))
      (sort (a_ref @ b_ref));
    Alcotest.(check int) "a_only count" (List.length a_ref) (List.length delta.Parent.a_only);
    Alcotest.(check int) "b_only count" (List.length b_ref) (List.length delta.Parent.b_only)

(* A view of [p] that counts the children read from it. *)
let counted_stream p =
  let inner = Parent.stream_of_t p in
  let calls = Atomic.make 0 in
  ({ inner with Parent.child = (fun i -> Atomic.incr calls; inner.Parent.child i) }, calls)

(* A failed level-1 (or round-1) decode must cost Bob at most one walk of
   his stream: cascade's higher-level tables and T* are built only once
   recovery reaches them. This is what keeps the failed rungs of an
   unknown-d ladder cheap. *)
let test_failed_attempt_walks_bob_once kind () =
  let rng = Prng.create ~seed in
  let s = 60 in
  let bob = Parent.random rng ~universe:u ~children:s ~child_size:10 in
  let alice, _ = Parent.perturb rng ~universe:u ~edits:60 bob in
  let counted, calls = counted_stream bob in
  match
    Protocol.run_known_stream kind ~comm:(Comm.create ()) ~seed ~enc_seed:None ~d:8 ~u ~h
      ~alice:(Parent.stream_of_t alice) ~bob:counted
  with
  | Ok _ -> Alcotest.fail "d = 8 against dozens of differing children decoded"
  | Error `Decode_failure ->
    let n = Atomic.get calls in
    Alcotest.(check bool) (Printf.sprintf "Bob's stream read %d times for s = %d" n s) true (n <= s)

(* A successful attempt reads each party's stream once: the pass that
   builds a party's sketch also yields its guard digest, and afterwards
   only the O(d) differing children are fetched by position. Cascade's Bob
   makes one more pass, for his tables above level 1. *)
let test_success_walks_each_party_once kind () =
  let rng = Prng.create ~seed in
  let edits = 4 in
  let d = 2 * edits in
  let bob = Parent.random rng ~universe:u ~children:200 ~child_size:10 in
  let alice, _ = Parent.perturb rng ~universe:u ~edits bob in
  let alice_st, alice_calls = counted_stream alice and bob_st, bob_calls = counted_stream bob in
  match
    Protocol.run_known_stream kind ~comm:(Comm.create ()) ~seed ~enc_seed:None ~d ~u ~h
      ~alice:alice_st ~bob:bob_st
  with
  | Error `Decode_failure -> Alcotest.fail "s = 200 with 4 edits failed to decode"
  | Ok _ ->
    let bob_walks = if kind = Protocol.Cascade then 2 else 1 in
    let check who calls ~walks s =
      let n = Atomic.get calls in
      Alcotest.(check bool)
        (Printf.sprintf "%s's stream read %d times for s = %d, d = %d" who n s d)
        true
        (n <= (walks * s) + (2 * d))
    in
    check "Alice" alice_calls ~walks:1 (Parent.cardinal alice);
    check "Bob" bob_calls ~walks:bob_walks (Parent.cardinal bob)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_perturb_then_reconcile Protocol.Naive;
      prop_perturb_then_reconcile Protocol.Iblt_of_iblts;
      prop_perturb_then_reconcile Protocol.Cascade;
      prop_perturb_then_reconcile Protocol.Multiround;
    ]

let protocol_cases kind =
  [
    Alcotest.test_case "roundtrip" `Quick (roundtrip_test kind);
    Alcotest.test_case "identical parents" `Quick (identical_test kind);
    Alcotest.test_case "single edit" `Quick (single_edit_test kind);
    Alcotest.test_case "unknown d" `Quick (unknown_d_test kind);
    Alcotest.test_case "failed attempt walks Bob once" `Quick (test_failed_attempt_walks_bob_once kind);
    Alcotest.test_case "success walks each party once" `Quick (test_success_walks_each_party_once kind);
  ]

let () =
  Alcotest.run "ssr_core"
    [
      ( "parent",
        [
          Alcotest.test_case "canonical form" `Quick test_parent_canonical;
          Alcotest.test_case "hash sensitivity" `Quick test_parent_hash_sensitivity;
          Alcotest.test_case "symmetric diff" `Quick test_parent_symmetric_diff;
          Alcotest.test_case "relaxed matching cost" `Quick test_parent_relaxed_cost;
          Alcotest.test_case "perturb cost bounded" `Quick test_parent_perturb_cost_bounded;
        ] );
      ( "direct-encoding",
        [
          Alcotest.test_case "bitmap roundtrip" `Quick test_direct_bitmap_roundtrip;
          Alcotest.test_case "list roundtrip" `Quick test_direct_list_roundtrip;
          Alcotest.test_case "rejects invalid" `Quick test_direct_rejects_invalid;
          Alcotest.test_case "width choice" `Quick test_direct_width_choice;
        ] );
      ( "child-encoding",
        [
          Alcotest.test_case "roundtrip" `Quick test_encoding_roundtrip;
          Alcotest.test_case "try_recover" `Quick test_encoding_try_recover;
        ] );
      ("naive", protocol_cases Protocol.Naive);
      ("iblt-of-iblts", protocol_cases Protocol.Iblt_of_iblts);
      ("cascade", protocol_cases Protocol.Cascade);
      ("multiround", protocol_cases Protocol.Multiround);
      ( "cross-protocol",
        [
          Alcotest.test_case "round counts" `Quick round_counts;
          Alcotest.test_case "structured beats naive comm" `Quick test_structured_beats_naive_comm;
          Alcotest.test_case "failures detected" `Quick test_failure_detected_not_silent;
          Alcotest.test_case "whole-child replacement" `Quick test_whole_child_replacement;
          Alcotest.test_case "cascade level structure" `Quick test_cascade_levels_structure;
          Alcotest.test_case "cascade star regime" `Quick test_cascade_star_regime;
          Alcotest.test_case "multiround uses CPI" `Quick test_multiround_uses_cpi_for_small_diffs;
        ] );
      ( "sos3",
        [
          Alcotest.test_case "roundtrip" `Quick test_sos3_roundtrip;
          Alcotest.test_case "identical" `Quick test_sos3_identical;
          Alcotest.test_case "unknown d" `Quick test_sos3_unknown;
          Alcotest.test_case "diff bounds" `Quick test_sos3_diff_bounds;
          Alcotest.test_case "hash sensitivity" `Quick test_sos3_hash_sensitivity;
        ] );
      ( "amplification",
        [
          Alcotest.test_case "beats single run" `Quick test_amplification_succeeds_under_tight_sizing;
          Alcotest.test_case "charges all replicas" `Quick test_amplification_charges_all_replicas;
          Alcotest.test_case "validation" `Quick test_amplification_validation;
        ] );
      ( "multiround-ablation",
        [ Alcotest.test_case "primitive choices" `Quick test_multiround_primitive_ablation ] );
      ( "sets-of-multisets",
        [
          Alcotest.test_case "roundtrip" `Quick test_sos_multiset_roundtrip;
          Alcotest.test_case "duplicate children" `Quick test_sos_multiset_duplicates;
          Alcotest.test_case "identical" `Quick test_sos_multiset_identical;
        ] );
      ( "scale",
        [ Alcotest.test_case "10^4-child iblt-of-iblts" `Quick test_ioi_ten_thousand_children ] );
      ("properties", qcheck_tests);
    ]
