(* End-to-end tests for the graph reconciliation protocols (§4, §5, §6). *)

module Prng = Ssr_util.Prng
module Graph = Ssr_graphs.Graph
module Gnp = Ssr_graphs.Gnp
module Iso = Ssr_graphs.Iso
module Dsig = Ssr_graphs.Degree_order_sig
module Nsig = Ssr_graphs.Neighbor_degree_sig
module Forest = Ssr_graphs.Forest
module Labeled = Ssr_graphrecon.Labeled
module Degree_order = Ssr_graphrecon.Degree_order
module Degree_nbr = Ssr_graphrecon.Degree_nbr
module Poly_protocol = Ssr_graphrecon.Poly_protocol
module Forest_recon = Ssr_graphrecon.Forest_recon
module Comm = Ssr_setrecon.Comm

let seed = 0x6EAC0DEL

(* ---------- Labeled graphs ---------- *)

let test_labeled_roundtrip () =
  let rng = Prng.create ~seed in
  for trial = 1 to 10 do
    let d = 1 + (trial mod 6) in
    let bob = Gnp.sample rng ~n:50 ~p:0.2 in
    let alice = Graph.flip_random_edges rng bob d in
    match Labeled.reconcile_known_d ~seed:(Prng.derive ~seed ~tag:trial) ~d ~alice ~bob () with
    | Ok o -> Alcotest.(check bool) "recovered" true (Graph.equal o.Labeled.recovered alice)
    | Error _ -> Alcotest.fail "labeled reconciliation failed"
  done

(* ---------- Polynomial protocols (small n) ---------- *)

let test_iso_check_accepts () =
  let rng = Prng.create ~seed in
  for trial = 1 to 10 do
    let g = Gnp.sample rng ~n:6 ~p:0.5 in
    let perm = List.nth (Iso.permutations 6) (Prng.int_below rng 720) in
    let h = Graph.relabel g perm in
    let same, stats = Poly_protocol.isomorphism_check ~seed:(Prng.derive ~seed ~tag:trial) g h in
    Alcotest.(check bool) "accepts isomorphic" true same;
    Alcotest.(check int) "O(log n) bits" 128 stats.Comm.bits_total
  done

let test_iso_check_rejects () =
  let path = Graph.create ~n:4 ~edges:[ (0, 1); (1, 2); (2, 3) ] in
  let star = Graph.create ~n:4 ~edges:[ (0, 1); (0, 2); (0, 3) ] in
  let same, _ = Poly_protocol.isomorphism_check ~seed path star in
  Alcotest.(check bool) "rejects non-isomorphic" false same

let test_poly_reconcile () =
  let rng = Prng.create ~seed in
  for trial = 1 to 8 do
    let d = 1 + (trial mod 2) in
    let base = Gnp.sample rng ~n:6 ~p:0.4 in
    let bob = base in
    (* Alice: d flips plus a relabeling (she is unlabeled). *)
    let alice0 = Graph.flip_random_edges rng base d in
    let perm = List.nth (Iso.permutations 6) (Prng.int_below rng 720) in
    let alice = Graph.relabel alice0 perm in
    match Poly_protocol.reconcile ~seed:(Prng.derive ~seed ~tag:(100 + trial)) ~d ~alice ~bob () with
    | Ok (g, stats) ->
      Alcotest.(check bool) "isomorphic to alice" true (Iso.is_isomorphic g alice);
      Alcotest.(check int) "two field words" 128 stats.Comm.bits_total
    | Error _ -> Alcotest.fail "polynomial reconciliation failed"
  done

let test_poly_reconcile_identical () =
  let g = Graph.create ~n:5 ~edges:[ (0, 1); (2, 3) ] in
  match Poly_protocol.reconcile ~seed ~d:1 ~alice:g ~bob:g () with
  | Ok (r, _) -> Alcotest.(check bool) "isomorphic" true (Iso.is_isomorphic r g)
  | Error _ -> Alcotest.fail "failed on identical graphs"

(* ---------- Degree-ordering scheme ---------- *)

let test_degree_order_success () =
  (* Theorem 5.2 is conditioned on (h, d+1, 2d+1)-separation, which G(n,p)
     only exhibits at astronomically large n (Theorem 5.3's p lower bound
     exceeds 1 here); planted instances provide the certified regime. *)
  let rng = Prng.create ~seed in
  let successes = ref 0 in
  let trials = 6 in
  let h = 48 in
  for trial = 1 to trials do
    let d = 1 + (trial mod 3) in
    let base = Ssr_graphs.Planted.separated_instance rng ~n:450 ~h ~d () in
    let alice, bob = Ssr_graphs.Planted.perturbed_pair rng ~base ~d in
    match Degree_order.reconcile ~seed:(Prng.derive ~seed ~tag:trial) ~d ~h ~alice ~bob () with
    | Ok o -> (
      match Degree_order.labeled_view alice ~h with
      | Some la ->
        if Graph.equal o.Degree_order.recovered la then incr successes
        else Alcotest.fail "recovered wrong graph"
      | None -> Alcotest.fail "alice not labelable")
    | Error _ -> ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "successes %d/%d" !successes trials)
    true
    (!successes >= trials - 1)

let test_degree_order_not_separated_detected () =
  (* A graph with many equal degrees cannot be separated; must error, not
     corrupt. *)
  let cycle = Graph.create ~n:8 ~edges:(List.init 8 (fun i -> (i, (i + 1) mod 8))) in
  match Degree_order.reconcile ~seed ~d:1 ~h:2 ~alice:cycle ~bob:cycle () with
  | Error (`Not_separated _) -> ()
  | Error (`Decode_failure _) -> ()
  | Ok o ->
    (* Accept only an actually-correct result. *)
    Alcotest.(check bool) "not silently wrong" true (Graph.num_edges o.Degree_order.recovered = 8)

(* ---------- Degree-neighbourhood scheme ---------- *)

let test_degree_nbr_success () =
  let rng = Prng.create ~seed in
  let successes = ref 0 in
  let attempts = ref 0 in
  let trials = 5 in
  for trial = 1 to trials do
    let d = 1 in
    let n = 300 and p = 0.3 in
    let alice, bob = Gnp.perturbed_pair rng ~n ~p ~d in
    let cap = Nsig.default_cap ~n ~p in
    if Nsig.is_disjoint alice ~cap ~k:((4 * d) + 1) then begin
      incr attempts;
      match Degree_nbr.reconcile ~seed:(Prng.derive ~seed ~tag:(300 + trial)) ~d ~cap ~alice ~bob () with
      | Ok o -> (
        match Degree_nbr.labeled_view alice ~cap with
        | Some la ->
          if Graph.equal o.Degree_nbr.recovered la then incr successes
          else Alcotest.fail "recovered wrong graph"
        | None -> Alcotest.fail "alice not labelable")
      | Error _ -> ()
    end
  done;
  Alcotest.(check bool)
    (Printf.sprintf "successes %d/%d attempts" !successes !attempts)
    true
    (!attempts > 0 && !successes >= !attempts - 1)

let test_degree_nbr_collision_detected () =
  let path = Graph.create ~n:6 ~edges:[ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5) ] in
  match Degree_nbr.reconcile ~seed ~d:1 ~cap:10 ~alice:path ~bob:path () with
  | Error (`Not_disjoint _) -> ()
  | Error (`Decode_failure _) -> ()
  | Ok _ -> Alcotest.fail "symmetric path has colliding signatures"

(* ---------- Forest reconciliation ---------- *)

let test_forest_recon_known () =
  let rng = Prng.create ~seed in
  let ok = ref 0 in
  let trials = 10 in
  for trial = 1 to trials do
    let sigma = 3 + (trial mod 4) in
    let d = 1 + (trial mod 4) in
    let bob = Forest.random rng ~n:120 ~max_depth:sigma () in
    let alice = Forest.random_updates rng ~max_depth:sigma bob d in
    match
      Forest_recon.reconcile_known ~seed:(Prng.derive ~seed ~tag:(500 + trial)) ~d ~sigma ~alice ~bob ()
    with
    | Ok o -> if Forest.isomorphic o.Forest_recon.recovered alice then incr ok else Alcotest.fail "wrong forest"
    | Error _ -> ()
  done;
  Alcotest.(check bool) (Printf.sprintf "ok %d/%d" !ok trials) true (!ok >= trials - 1)

let test_forest_recon_unknown () =
  let rng = Prng.create ~seed in
  let bob = Forest.random rng ~n:80 ~max_depth:5 () in
  let alice = Forest.random_updates rng ~max_depth:5 bob 3 in
  match Forest_recon.reconcile_unknown ~seed ~alice ~bob () with
  | Ok o -> Alcotest.(check bool) "isomorphic" true (Forest.isomorphic o.Forest_recon.recovered alice)
  | Error _ -> Alcotest.fail "unknown-d forest reconciliation failed"

let test_forest_recon_identical () =
  let rng = Prng.create ~seed in
  let f = Forest.random rng ~n:50 ~max_depth:4 () in
  match Forest_recon.reconcile_known ~seed ~d:1 ~sigma:4 ~alice:f ~bob:f () with
  | Ok o -> Alcotest.(check bool) "isomorphic" true (Forest.isomorphic o.Forest_recon.recovered f)
  | Error _ -> Alcotest.fail "failed on identical forests"

let test_forest_comm_scales_with_d_sigma_not_n () =
  let rng = Prng.create ~seed in
  let bits ~n =
    let bob = Forest.random rng ~n ~max_depth:4 () in
    let alice = Forest.random_updates rng ~max_depth:4 bob 2 in
    match Forest_recon.reconcile_known ~seed ~d:2 ~sigma:4 ~alice ~bob () with
    | Ok o -> o.Forest_recon.stats.Comm.bits_total
    | Error _ -> -1
  in
  let small = bits ~n:60 in
  let large = bits ~n:600 in
  Alcotest.(check bool) "both succeeded" true (small > 0 && large > 0);
  (* Communication is driven by d*sigma, not n: allow slack but not linear
     growth. *)
  Alcotest.(check bool)
    (Printf.sprintf "small=%d large=%d" small large)
    true
    (large < 4 * small)

(* ---------- Edge cases ---------- *)

let test_labeled_size_mismatch () =
  let a = Gnp.sample (Prng.create ~seed) ~n:5 ~p:0.5 in
  let b = Gnp.sample (Prng.create ~seed) ~n:6 ~p:0.5 in
  Alcotest.(check bool) "mismatch rejected" true
    (try
       ignore (Labeled.reconcile_known_d ~seed ~d:1 ~alice:a ~bob:b ());
       false
     with Invalid_argument _ -> true)

let test_labeled_empty_graphs () =
  let a = Graph.create ~n:10 ~edges:[] in
  match Labeled.reconcile_known_d ~seed ~d:1 ~alice:a ~bob:a () with
  | Ok o -> Alcotest.(check int) "still empty" 0 (Graph.num_edges o.Labeled.recovered)
  | Error _ -> Alcotest.fail "failed on empty graphs"

let test_iso_check_bits_constant () =
  (* The fingerprint is two field words regardless of density. *)
  let rng = Prng.create ~seed in
  let sparse = Gnp.sample rng ~n:6 ~p:0.1 in
  let dense = Gnp.sample rng ~n:6 ~p:0.9 in
  let _, s1 = Poly_protocol.isomorphism_check ~seed sparse sparse in
  let _, s2 = Poly_protocol.isomorphism_check ~seed dense dense in
  Alcotest.(check int) "same bits" s1.Comm.bits_total s2.Comm.bits_total

let test_poly_reconcile_size_mismatch () =
  let a = Graph.create ~n:4 ~edges:[] and b = Graph.create ~n:5 ~edges:[] in
  Alcotest.(check bool) "mismatch rejected" true
    (try
       ignore (Poly_protocol.reconcile ~seed ~d:1 ~alice:a ~bob:b ());
       false
     with Invalid_argument _ -> true)

let test_poly_reconcile_d_too_small () =
  (* Alice is 3 flips away but Bob only enumerates 1: must report, not lie. *)
  let base = Graph.create ~n:5 ~edges:[ (0, 1); (1, 2) ] in
  let alice = Graph.create ~n:5 ~edges:[ (0, 1); (1, 2); (2, 3); (3, 4); (0, 4) ] in
  match Poly_protocol.reconcile ~seed ~d:1 ~alice ~bob:base () with
  | Error (`No_candidate _) -> ()
  | Ok (g, _) -> Alcotest.(check bool) "only correct adoption" true (Iso.is_isomorphic g alice)

let test_degree_order_size_mismatch () =
  let a = Graph.create ~n:4 ~edges:[] and b = Graph.create ~n:5 ~edges:[] in
  Alcotest.(check bool) "mismatch rejected" true
    (try
       ignore (Degree_order.reconcile ~seed ~d:1 ~h:2 ~alice:a ~bob:b ());
       false
     with Invalid_argument _ -> true)

let test_forest_recon_empty_and_tiny () =
  (* Identical empty forests. *)
  let empty = Forest.of_parents [||] in
  (match Forest_recon.reconcile_known ~seed ~d:1 ~sigma:1 ~alice:empty ~bob:empty () with
  | Ok o -> Alcotest.(check int) "empty" 0 (Forest.n o.Forest_recon.recovered)
  | Error _ -> Alcotest.fail "failed on empty forests");
  (* Two-vertex forests one update apart. *)
  let bob = Forest.of_parents [| -1; -1 |] in
  let alice = Forest.of_parents [| -1; 0 |] in
  match Forest_recon.reconcile_unknown ~seed ~alice ~bob () with
  | Ok o -> Alcotest.(check bool) "tiny recovered" true (Forest.isomorphic o.Forest_recon.recovered alice)
  | Error _ -> Alcotest.fail "failed on tiny forests"

let test_forest_recon_many_identical_trees () =
  (* Heavy duplication: 20 identical 3-node trees; one update. *)
  let parent = Array.init 60 (fun v -> if v mod 3 = 0 then -1 else v - (v mod 3)) in
  let bob = Forest.of_parents parent in
  let p2 = Array.copy parent in
  p2.(1) <- -1;
  let alice = Forest.of_parents p2 in
  match Forest_recon.reconcile_unknown ~seed ~alice ~bob () with
  | Ok o -> Alcotest.(check bool) "recovered" true (Forest.isomorphic o.Forest_recon.recovered alice)
  | Error _ -> Alcotest.fail "failed on duplicated trees"

(* ---------- qcheck ---------- *)

let prop_labeled_recovery =
  QCheck.Test.make ~name:"labeled graph reconciliation" ~count:25
    (QCheck.pair (QCheck.int_range 10 60) (QCheck.int_range 0 8)) (fun (n, d) ->
      let rng = Prng.create ~seed:(Int64.of_int ((n * 100) + d)) in
      let bob = Gnp.sample rng ~n ~p:0.3 in
      let alice = Graph.flip_random_edges rng bob d in
      match Labeled.reconcile_known_d ~seed:(Int64.of_int (d + 5)) ~d:(max 1 d) ~alice ~bob () with
      | Ok o -> Graph.equal o.Labeled.recovered alice
      | Error _ -> QCheck.assume_fail ())

let prop_forest_recon =
  QCheck.Test.make ~name:"forest reconciliation (unknown d)" ~count:15
    (QCheck.pair (QCheck.int_range 10 80) (QCheck.int_range 0 4)) (fun (n, d) ->
      let rng = Prng.create ~seed:(Int64.of_int ((n * 31) + d)) in
      let bob = Forest.random rng ~n ~max_depth:4 () in
      let alice = Forest.random_updates rng ~max_depth:4 bob d in
      match Forest_recon.reconcile_unknown ~seed:(Int64.of_int (n + d)) ~alice ~bob () with
      | Ok o -> Forest.isomorphic o.Forest_recon.recovered alice
      | Error _ -> QCheck.assume_fail ())

let qcheck_tests = List.map QCheck_alcotest.to_alcotest [ prop_labeled_recovery; prop_forest_recon ]

let () =
  Alcotest.run "ssr_graphrecon"
    [
      ( "labeled",
        [
          Alcotest.test_case "roundtrip" `Quick test_labeled_roundtrip;
        ] );
      ( "poly-protocol",
        [
          Alcotest.test_case "iso check accepts" `Quick test_iso_check_accepts;
          Alcotest.test_case "iso check rejects" `Quick test_iso_check_rejects;
          Alcotest.test_case "reconcile small graphs" `Quick test_poly_reconcile;
          Alcotest.test_case "reconcile identical" `Quick test_poly_reconcile_identical;
        ] );
      ( "degree-order",
        [
          Alcotest.test_case "success on separated graphs" `Slow test_degree_order_success;
          Alcotest.test_case "non-separation detected" `Quick test_degree_order_not_separated_detected;
        ] );
      ( "degree-nbr",
        [
          Alcotest.test_case "success on disjoint graphs" `Slow test_degree_nbr_success;
          Alcotest.test_case "collision detected" `Quick test_degree_nbr_collision_detected;
        ] );
      ( "forest",
        [
          Alcotest.test_case "known d" `Quick test_forest_recon_known;
          Alcotest.test_case "unknown d" `Quick test_forest_recon_unknown;
          Alcotest.test_case "identical" `Quick test_forest_recon_identical;
          Alcotest.test_case "comm scales with d*sigma" `Quick test_forest_comm_scales_with_d_sigma_not_n;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "labeled size mismatch" `Quick test_labeled_size_mismatch;
          Alcotest.test_case "labeled empty graphs" `Quick test_labeled_empty_graphs;
          Alcotest.test_case "iso bits constant" `Quick test_iso_check_bits_constant;
          Alcotest.test_case "poly size mismatch" `Quick test_poly_reconcile_size_mismatch;
          Alcotest.test_case "poly d too small" `Quick test_poly_reconcile_d_too_small;
          Alcotest.test_case "degree-order size mismatch" `Quick test_degree_order_size_mismatch;
          Alcotest.test_case "forest empty and tiny" `Quick test_forest_recon_empty_and_tiny;
          Alcotest.test_case "forest duplicated trees" `Quick test_forest_recon_many_identical_trees;
        ] );
      ("properties", qcheck_tests);
    ]
