(* Cross-library property suite: algebraic laws of the sketches and
   protocols that the paper's proofs rely on implicitly. Each property is a
   distinct invariant, not a re-run of a unit test. *)

module Prng = Ssr_util.Prng
module Iset = Ssr_util.Iset
module Bits = Ssr_util.Bits
module Gf61 = Ssr_field.Gf61
module Poly = Ssr_field.Poly
module Iblt = Ssr_sketch.Iblt
module L0 = Ssr_sketch.L0_estimator
module Multiset = Ssr_setrecon.Multiset
module Two_way = Ssr_setrecon.Two_way
module Parent = Ssr_core.Parent
module Direct = Ssr_core.Direct
module Encoding = Ssr_core.Encoding
module Sos_multiset = Ssr_core.Sos_multiset
module Protocol = Ssr_core.Protocol
module Forest = Ssr_graphs.Forest
module Graph = Ssr_graphs.Graph

let seed = 0x9209E125L

let iset_gen max_elt = QCheck.Gen.(map Iset.of_list (list_size (int_bound 40) (int_bound max_elt)))
let iset_arb max_elt = QCheck.make ~print:(Format.asprintf "%a" Iset.pp) (iset_gen max_elt)

(* --- IBLT algebra --- *)

(* The IBLT is a linear sketch: table(A) - table(B) is the same cell state
   as inserting A ⊕ B with signs, no matter the insertion order. *)
let prop_iblt_linearity =
  QCheck.Test.make ~name:"IBLT subtraction = signed symmetric difference" ~count:80
    (QCheck.pair (iset_arb 5_000) (iset_arb 5_000)) (fun (a, b) ->
      let prm : Iblt.params = { cells = 64; k = 4; key_len = 8; seed = 5L } in
      let ta = Iblt.create prm and tb = Iblt.create prm in
      Iset.iter (fun x -> Iblt.insert_int ta x) a;
      Iset.iter (fun x -> Iblt.insert_int tb x) b;
      let direct =
        let t = Iblt.create prm in
        Iset.iter (fun x -> Iblt.insert_int t x) (Iset.diff a b);
        Iset.iter (fun x -> Iblt.delete_int t x) (Iset.diff b a);
        t
      in
      Bytes.equal (Iblt.body_bytes (Iblt.subtract ta tb)) (Iblt.body_bytes direct))

let prop_iblt_insert_order_irrelevant =
  QCheck.Test.make ~name:"IBLT state independent of insertion order" ~count:60 (iset_arb 10_000)
    (fun s ->
      let prm : Iblt.params = { cells = 48; k = 3; key_len = 8; seed = 6L } in
      let t1 = Iblt.create prm and t2 = Iblt.create prm in
      Iset.iter (fun x -> Iblt.insert_int t1 x) s;
      List.iter (Iblt.insert_int t2) (List.rev (Iset.to_list s));
      Bytes.equal (Iblt.body_bytes t1) (Iblt.body_bytes t2))

let prop_iblt_serialization_identity =
  QCheck.Test.make ~name:"IBLT body serialization round-trips" ~count:60 (iset_arb 10_000) (fun s ->
      let prm : Iblt.params = { cells = 48; k = 4; key_len = 8; seed = 7L } in
      let t = Iblt.create prm in
      Iset.iter (fun x -> Iblt.insert_int t x) s;
      let body = Iblt.body_bytes t in
      Bytes.equal body (Iblt.body_bytes (Iblt.of_body_bytes prm body)))

(* --- l0 estimator algebra --- *)

let prop_l0_merge_commutes =
  QCheck.Test.make ~name:"l0 merge commutes" ~count:50 (QCheck.pair (iset_arb 50_000) (iset_arb 50_000))
    (fun (a, b) ->
      let mk s side =
        let e = L0.create ~seed:9L () in
        Iset.iter (fun x -> L0.update e side x) s;
        e
      in
      let ea = mk a L0.S1 and eb = mk b L0.S2 in
      L0.to_bytes (L0.merge ea eb) = L0.to_bytes (L0.merge eb ea))

let prop_l0_merge_assoc =
  QCheck.Test.make ~name:"l0 merge associates" ~count:40
    (QCheck.triple (iset_arb 50_000) (iset_arb 50_000) (iset_arb 50_000)) (fun (a, b, c) ->
      let mk s side =
        let e = L0.create ~seed:10L () in
        Iset.iter (fun x -> L0.update e side x) s;
        e
      in
      let ea = mk a L0.S1 and eb = mk b L0.S2 and ec = mk c L0.S1 in
      L0.to_bytes (L0.merge (L0.merge ea eb) ec) = L0.to_bytes (L0.merge ea (L0.merge eb ec)))

(* --- Characteristic polynomials --- *)

let prop_char_poly_multiplicative =
  (* chi_{A ∪ B} = chi_A * chi_B for disjoint A, B. *)
  QCheck.Test.make ~name:"characteristic polynomial is multiplicative over disjoint union" ~count:40
    (QCheck.pair (iset_arb 1_000) (iset_arb 1_000)) (fun (a, b0) ->
      let b = Iset.diff b0 a in
      let poly s = Poly.from_roots (Array.of_list (Iset.to_list s)) in
      Poly.equal (poly (Iset.union a b)) (Poly.mul (poly a) (poly b)))

let prop_gf61_pow_homomorphism =
  QCheck.Test.make ~name:"gf61 pow is a homomorphism" ~count:100
    (QCheck.triple QCheck.small_nat QCheck.small_nat (QCheck.make (QCheck.Gen.int_bound 1_000_000)))
    (fun (m, n, x0) ->
      let x = Gf61.of_int (x0 + 1) in
      Gf61.mul (Gf61.pow x m) (Gf61.pow x n) = Gf61.pow x (m + n))

(* --- Direct encoding --- *)

let prop_direct_roundtrip =
  QCheck.Test.make ~name:"direct encoding round-trips in both modes" ~count:80
    (QCheck.pair (QCheck.make (iset_gen 200)) QCheck.bool) (fun (s0, bitmap_mode) ->
      let cfg : Direct.config = if bitmap_mode then { u = 201; h = 200 } else { u = 1 lsl 20; h = 45 } in
      let s = if bitmap_mode then s0 else s0 in
      Direct.decode cfg (Direct.encode cfg s) = Some s)

let prop_direct_injective =
  QCheck.Test.make ~name:"direct encoding is injective" ~count:80
    (QCheck.pair (QCheck.make (iset_gen 200)) (QCheck.make (iset_gen 200))) (fun (a, b) ->
      let cfg : Direct.config = { u = 201; h = 50 } in
      if Iset.cardinal a > 50 || Iset.cardinal b > 50 then true
      else begin
        (* The reused buffer of [encoder], written for [b] first, must
           come back as [a]'s key. *)
        let enc = Direct.encoder cfg in
        let ka = Direct.encode cfg a in
        ignore (enc b);
        Iset.equal a b = Bytes.equal ka (Direct.encode cfg b) && Bytes.equal ka (enc a)
      end)

(* --- Child encodings --- *)

let prop_encoding_deterministic_and_discriminating =
  QCheck.Test.make ~name:"child encodings deterministic, distinct children distinct keys" ~count:60
    (QCheck.pair (QCheck.make (iset_gen 5_000)) (QCheck.make (iset_gen 5_000))) (fun (a, b) ->
      let cfg : Encoding.config = { child_cells = 12; child_k = 3; hash_bits = 40; seed = 11L } in
      let ka = Encoding.encode cfg a and kb = Encoding.encode cfg b in
      (* [encoder]'s reused buffer and child table, used for [b] first. *)
      let enc = Encoding.encoder cfg in
      ignore (enc b);
      Bytes.equal ka (enc a) && Iset.equal a b = Bytes.equal ka kb)

(* The folds: children's encodings written four at a time into reused key
   buffers and inserted a group per [Iblt.add_all] land exactly the table
   that inserting fresh encodings in one batch does. The children include
   the empty set and repeats (so a memo hits inside a pass, and inside one
   group); they are folded in chunks of 1 to 9 children, so chunks that
   are multiples of four and chunks with a tail of 1 to 3 both occur, as
   a stream pass hands them over. With a memo the list is folded twice,
   the second pass served from the memo. *)
let prop_folds_match_add_all =
  let gen =
    QCheck.Gen.(
      pair
        (quad (int_range 6 140) (int_range 3 4) bool (int_range 1 9))
        (pair bool (list_size (int_bound 12) (iset_gen 200))))
  in
  QCheck.Test.make ~name:"Encoding and Direct folds = add_all of fresh encodings" ~count:80
    (QCheck.make gen) (fun ((cells, k, memo, chunk), (bitmap, kids)) ->
      let kids = Array.of_list ((Iset.empty :: kids) @ List.filteri (fun i _ -> i mod 3 = 0) kids) in
      let n = Array.length kids in
      let table key_len = Iblt.create { cells = 40; k; key_len; seed = 21L } in
      let same_as_batch key_len encode fold =
        let batch = table key_len in
        Iblt.add_all batch (Array.map encode kids);
        let folded = table key_len in
        for c = 0 to (n - 1) / chunk do
          let lo = c * chunk in
          fold folded (Array.sub kids lo (min chunk (n - lo)))
        done;
        Bytes.equal (Iblt.body_bytes batch) (Iblt.body_bytes folded)
      in
      let cfg : Encoding.config = { child_cells = cells; child_k = k; hash_bits = 30; seed = 19L } in
      let cache = if memo then Some (Ssr_core.Enc_cache.create ()) else None in
      let fold = Encoding.fold ?memo:cache cfg in
      let passes = if memo then 2 else 1 in
      let encoding_ok =
        List.for_all
          (fun _ -> same_as_batch (Encoding.key_length cfg) (Encoding.encode cfg) fold)
          (List.init passes Fun.id)
      in
      let dcfg : Direct.config = if bitmap then { u = 201; h = 200 } else { u = 1 lsl 20; h = 40 } in
      encoding_ok && same_as_batch (Direct.key_length dcfg) (Direct.encode dcfg) (Direct.fold dcfg))

(* The pairing hoist: one staged [pairing] over Bob's differing children
   answers every key as scanning them with [try_recover] does — keys of
   nearby children, a child that pairs with none, and keys of the wrong
   length or of garbage bytes. *)
let prop_pairing_matches_scan =
  let gen =
    QCheck.Gen.(
      triple
        (pair (int_range 6 40) (int_range 3 4))
        (list_size (int_bound 6) (iset_gen 300))
        (list_size (int_bound 6) (pair nat (list_size (int_bound 4) (int_bound 300)))))
  in
  QCheck.Test.make ~name:"pairing = per-pair try_recover scan" ~count:80 (QCheck.make gen)
    (fun ((cells, k), bob, edits) ->
      let cfg : Encoding.config = { child_cells = cells; child_k = k; hash_bits = 20; seed = 13L } in
      let toggle c x = if Iset.mem x c then Iset.remove x c else Iset.add x c in
      let edited (i, xs) =
        let base = match bob with [] -> Iset.empty | _ -> List.nth bob (i mod List.length bob) in
        List.fold_left toggle base xs
      in
      let len = Encoding.key_length cfg in
      let far = Iset.of_list (List.init 80 (fun i -> 10_000 + i)) in
      let keys =
        List.map (fun e -> Encoding.encode cfg (edited e)) edits
        @ [
            Encoding.encode cfg far;
            Bytes.make (len - 1) '\000';
            Bytes.make (len + 1) '\000';
            Bytes.make len '\xAB';
          ]
      in
      let recover = Encoding.pairing cfg bob in
      let scan key = List.find_map (fun c -> Encoding.try_recover cfg ~alice_key:key ~bob_child:c) bob in
      List.for_all (fun key -> Option.equal Iset.equal (recover key) (scan key)) keys
      && recover (Encoding.encode cfg far) = None)

(* --- Parents --- *)

let parent_gen =
  QCheck.Gen.(
    let child = map Iset.of_list (list_size (int_range 1 10) (int_bound 3_000)) in
    map Parent.of_children (list_size (int_range 1 8) child))

let prop_parent_relaxed_cost_symmetricish =
  (* The relaxed cost is symmetric by construction. *)
  QCheck.Test.make ~name:"relaxed matching cost is symmetric" ~count:60
    (QCheck.pair (QCheck.make parent_gen) (QCheck.make parent_gen)) (fun (a, b) ->
      Parent.relaxed_matching_cost a b = Parent.relaxed_matching_cost b a)

let prop_parent_hash_equal_iff =
  QCheck.Test.make ~name:"parent hash collision-free on samples" ~count:80
    (QCheck.pair (QCheck.make parent_gen) (QCheck.make parent_gen)) (fun (a, b) ->
      Parent.equal a b = (Parent.hash ~seed a = Parent.hash ~seed b))

(* --- Multisets --- *)

let mset_gen = QCheck.Gen.(map Multiset.of_list (list_size (int_bound 30) (int_bound 25)))

let prop_multiset_pair_encoding_faithful =
  QCheck.Test.make ~name:"multiset <-> pair-set encoding is a bijection" ~count:80
    (QCheck.make mset_gen) (fun m ->
      Multiset.equal m (Multiset.of_pair_keys (Multiset.pair_keys m ~key_len:16)))

let prop_multiset_sym_diff_is_metric =
  QCheck.Test.make ~name:"multiset sym_diff: identity of indiscernibles" ~count:80
    (QCheck.pair (QCheck.make mset_gen) (QCheck.make mset_gen)) (fun (a, b) ->
      (Multiset.sym_diff_size a b = 0) = Multiset.equal a b)

(* --- Sets of multisets --- *)

let prop_sos_multiset_roundtrip =
  QCheck.Test.make ~name:"sets-of-multisets reconciliation round-trips" ~count:20
    (QCheck.pair (QCheck.make QCheck.Gen.(list_size (int_range 1 5) mset_gen)) QCheck.small_nat)
    (fun (kids, salt) ->
      let bob = Sos_multiset.of_children kids in
      (* Perturb one child's multiplicity. *)
      let alice =
        match kids with
        | first :: rest -> Sos_multiset.of_children (Multiset.add (salt mod 26) first :: rest)
        | [] -> bob
      in
      let d = max 1 (Sos_multiset.diff_bound alice bob) in
      match Sos_multiset.reconcile Protocol.Cascade ~seed:(Int64.of_int (salt + 3)) ~d ~u:30 ~alice ~bob () with
      | Ok (r, _) -> Sos_multiset.equal r alice
      | Error _ -> QCheck.assume_fail ())

(* --- Two-way --- *)

let prop_two_way_union =
  QCheck.Test.make ~name:"two-way reconciliation yields the union" ~count:40
    (QCheck.pair (iset_arb 20_000) (iset_arb 20_000)) (fun (a, b) ->
      let d = max 1 (Iset.sym_diff_size a b) in
      match Two_way.reconcile_known_d ~seed:13L ~d ~alice:a ~bob:b () with
      | Ok o -> Iset.equal o.Two_way.union (Iset.union a b)
      | Error _ -> QCheck.assume_fail ())

(* --- Forests --- *)

let forest_gen =
  QCheck.Gen.(
    let* n = int_range 1 50 in
    let* s = int_bound 1_000_000 in
    return (Forest.random (Prng.create ~seed:(Int64.of_int (s + 11))) ~n ~max_depth:5 ()))

let prop_forest_isomorphism_is_equivalence =
  QCheck.Test.make ~name:"forest isomorphism invariant under vertex renaming" ~count:40
    (QCheck.pair (QCheck.make forest_gen) QCheck.small_nat) (fun (f, s) ->
      (* Rename vertices by a random permutation: parent array permuted. *)
      let n = Forest.n f in
      let rng = Prng.create ~seed:(Int64.of_int (s + 1)) in
      let perm = Array.init n (fun i -> i) in
      for i = n - 1 downto 1 do
        let j = Prng.int_below rng (i + 1) in
        let tmp = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- tmp
      done;
      let old = Forest.parents f in
      let renamed = Array.make n (-1) in
      Array.iteri (fun v p -> renamed.(perm.(v)) <- (if p < 0 then -1 else perm.(p))) old;
      Forest.isomorphic f (Forest.of_parents renamed))

let prop_forest_encoding_iso_invariant =
  QCheck.Test.make ~name:"forest edge encoding is label-invariant (as a multiset)" ~count:30
    (QCheck.make forest_gen) (fun f ->
      let n = Forest.n f in
      let old = Forest.parents f in
      (* Reverse the vertex ids. *)
      let renamed = Array.make n (-1) in
      Array.iteri
        (fun v p -> renamed.(n - 1 - v) <- (if p < 0 then -1 else n - 1 - p))
        old;
      let g = Forest.of_parents renamed in
      let canon forest =
        List.sort compare (List.map Multiset.to_pairs (Forest.edge_encoding ~seed:14L forest))
      in
      canon f = canon g)

(* --- Graphs --- *)

let prop_relabel_preserves_degree_multiset =
  QCheck.Test.make ~name:"relabeling preserves the degree multiset" ~count:40
    (QCheck.pair (QCheck.int_range 2 30) QCheck.small_nat) (fun (n, s) ->
      let rng = Prng.create ~seed:(Int64.of_int (s + 2)) in
      let g = Ssr_graphs.Gnp.sample rng ~n ~p:0.4 in
      let perm = Array.init n (fun i -> i) in
      for i = n - 1 downto 1 do
        let j = Prng.int_below rng (i + 1) in
        let tmp = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- tmp
      done;
      let sorted g = List.sort compare (Array.to_list (Graph.degrees g)) in
      sorted g = sorted (Graph.relabel g perm))

let prop_flip_distance_is_metric =
  QCheck.Test.make ~name:"edge flip distance satisfies the triangle inequality" ~count:40
    (QCheck.triple QCheck.small_nat QCheck.small_nat QCheck.small_nat) (fun (x, y, z) ->
      let rng = Prng.create ~seed:(Int64.of_int ((x * 31) + y + 17)) in
      let n = 20 in
      let a = Ssr_graphs.Gnp.sample rng ~n ~p:0.3 in
      let b = Graph.flip_random_edges rng a (y mod 8) in
      let c = Graph.flip_random_edges rng b (z mod 8) in
      Graph.edge_flip_distance a c
      <= Graph.edge_flip_distance a b + Graph.edge_flip_distance b c)

(* --- Bits --- *)

let prop_ceil_log2 =
  QCheck.Test.make ~name:"ceil_log2 spec" ~count:200 (QCheck.int_range 1 1_000_000) (fun n ->
      let k = Bits.ceil_log2 n in
      (1 lsl k) >= n && (k = 0 || 1 lsl (k - 1) < n))

let all_props =
  [
    prop_iblt_linearity;
    prop_iblt_insert_order_irrelevant;
    prop_iblt_serialization_identity;
    prop_l0_merge_commutes;
    prop_l0_merge_assoc;
    prop_char_poly_multiplicative;
    prop_gf61_pow_homomorphism;
    prop_direct_roundtrip;
    prop_direct_injective;
    prop_encoding_deterministic_and_discriminating;
    prop_folds_match_add_all;
    prop_pairing_matches_scan;
    prop_parent_relaxed_cost_symmetricish;
    prop_parent_hash_equal_iff;
    prop_multiset_pair_encoding_faithful;
    prop_multiset_sym_diff_is_metric;
    prop_sos_multiset_roundtrip;
    prop_two_way_union;
    prop_forest_isomorphism_is_equivalence;
    prop_forest_encoding_iso_invariant;
    prop_relabel_preserves_degree_multiset;
    prop_flip_distance_is_metric;
    prop_ceil_log2;
  ]

let () = Alcotest.run "ssr_properties" [ ("laws", List.map QCheck_alcotest.to_alcotest all_props) ]
