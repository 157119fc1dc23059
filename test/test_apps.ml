(* Tests for the applications layer: binary databases and shingled document
   collections (paper §1's motivating applications). *)

module Prng = Ssr_util.Prng
module Iset = Ssr_util.Iset
module Protocol = Ssr_core.Protocol
module Bindb = Ssr_apps.Bindb
module Shingles = Ssr_apps.Shingles
module Comm = Ssr_setrecon.Comm

let seed = 0xAB5EEDL

(* ---------- Bindb ---------- *)

let random_db rng ~columns ~rows ~density =
  let row () = Array.init columns (fun _ -> Prng.bernoulli rng density) in
  Bindb.create ~columns ~rows:(List.init rows (fun _ -> row ()))

let test_bindb_roundtrip_representation () =
  let rows = [ [| true; false; true |]; [| false; false; false |] ] in
  let db = Bindb.create ~columns:3 ~rows in
  Alcotest.(check int) "rows" 2 (Bindb.num_rows db);
  Alcotest.(check int) "ones" 2 (Bindb.total_ones db);
  let sets = Bindb.row_sets db in
  Alcotest.(check bool) "row as set" true (List.exists (Iset.equal (Iset.of_list [ 0; 2 ])) sets);
  (* Rows are unlabeled: permuting them gives an equal database. *)
  let db' = Bindb.create ~columns:3 ~rows:(List.rev rows) in
  Alcotest.(check bool) "row order irrelevant" true (Bindb.equal db db')

let test_bindb_width_checked () =
  Alcotest.(check bool) "bad width" true
    (try
       ignore (Bindb.create ~columns:3 ~rows:[ [| true |] ]);
       false
     with Invalid_argument _ -> true)

let test_bindb_flip_bits () =
  let rng = Prng.create ~seed in
  let db = random_db rng ~columns:40 ~rows:25 ~density:0.4 in
  let db' = Bindb.flip_random_bits rng db 6 in
  Alcotest.(check bool) "changed" false (Bindb.equal db db');
  Alcotest.(check int) "columns preserved" 40 (Bindb.columns db')

let test_bindb_reconcile_all_protocols () =
  let rng = Prng.create ~seed in
  List.iter
    (fun kind ->
      let bob = random_db rng ~columns:48 ~rows:30 ~density:0.45 in
      let alice = Bindb.flip_random_bits rng bob 5 in
      match Bindb.reconcile kind ~seed:(Prng.derive ~seed ~tag:1) ~d:10 ~alice ~bob () with
      | Ok (recovered, stats) ->
        Alcotest.(check bool) ("recovered: " ^ Protocol.name kind) true (Bindb.equal recovered alice);
        Alcotest.(check bool) "nonzero comm" true (stats.Comm.bits_total > 0)
      | Error _ -> Alcotest.fail ("failed: " ^ Protocol.name kind))
    Protocol.all

let test_bindb_reconcile_unknown () =
  let rng = Prng.create ~seed in
  let bob = random_db rng ~columns:64 ~rows:40 ~density:0.5 in
  let alice = Bindb.flip_random_bits rng bob 9 in
  match Bindb.reconcile_unknown Protocol.Cascade ~seed:(Prng.derive ~seed ~tag:2) ~alice ~bob () with
  | Ok (recovered, _) -> Alcotest.(check bool) "recovered" true (Bindb.equal recovered alice)
  | Error _ -> Alcotest.fail "unknown-d reconciliation failed"

let test_bindb_identical () =
  let rng = Prng.create ~seed in
  let db = random_db rng ~columns:32 ~rows:20 ~density:0.3 in
  match Bindb.reconcile Protocol.Iblt_of_iblts ~seed ~d:2 ~alice:db ~bob:db () with
  | Ok (recovered, _) -> Alcotest.(check bool) "unchanged" true (Bindb.equal recovered db)
  | Error _ -> Alcotest.fail "failed on identical databases"

(* ---------- Shingles ---------- *)

let test_words_and_shingles () =
  let d = Shingles.shingle ~k:2 "The quick brown fox -- the QUICK brown fox!" in
  (* words: the quick brown fox the quick brown fox -> 7 windows, with
     repeats collapsing in the set. *)
  let s = Shingles.shingle_set d in
  Alcotest.(check bool) "some shingles" true (Iset.cardinal s >= 4);
  (* Case and punctuation insensitive. *)
  let d' = Shingles.shingle ~k:2 "the quick brown fox the quick brown fox" in
  Alcotest.(check bool) "normalized" true (Iset.equal s (Shingles.shingle_set d'))

let test_resemblance () =
  let a = Shingles.shingle ~k:3 "alpha beta gamma delta epsilon zeta" in
  let b = Shingles.shingle ~k:3 "alpha beta gamma delta epsilon eta" in
  let c = Shingles.shingle ~k:3 "completely different words entirely here now" in
  Alcotest.(check bool) "near duplicates resemble" true (Shingles.resemblance a b > 0.4);
  Alcotest.(check bool) "unrelated do not" true (Shingles.resemblance a c < 0.1);
  Alcotest.(check bool) "self" true (Shingles.resemblance a a = 1.0)

let lorem i =
  Printf.sprintf
    "document number %d talks about reconciliation of data sets between two parties alice and bob \
     using invertible bloom lookup tables and characteristic polynomials variant %d"
    i (i * i)

let test_collection_reconcile () =
  let k = 3 in
  let bob_docs = List.init 12 (fun i -> Shingles.shingle ~k (lorem i)) in
  (* Alice: one near-duplicate edit, one fresh document, rest identical. *)
  let edited = Shingles.shingle ~k (lorem 3 ^ " with a small trailing edit") in
  let fresh = Shingles.shingle ~k "a brand new document that resembles nothing else in this corpus at all" in
  let alice_docs =
    edited :: fresh :: List.filteri (fun i _ -> i <> 3) bob_docs
  in
  let alice = Shingles.collection alice_docs in
  let bob = Shingles.collection bob_docs in
  match Shingles.reconcile Protocol.Cascade ~seed ~alice ~bob () with
  | Ok (recovered, cls, _) ->
    Alcotest.(check bool) "recovered collection" true (Shingles.equal recovered alice);
    Alcotest.(check int) "fresh detected" 1 cls.Shingles.fresh;
    Alcotest.(check bool) "near duplicate detected" true (cls.Shingles.near_duplicates >= 1);
    Alcotest.(check bool) "most unchanged" true (cls.Shingles.unchanged >= 10)
  | Error _ -> Alcotest.fail "collection reconciliation failed"

let test_collection_identical () =
  let docs = List.init 5 (fun i -> Shingles.shingle ~k:2 (lorem i)) in
  let c = Shingles.collection docs in
  match Shingles.reconcile Protocol.Iblt_of_iblts ~seed ~alice:c ~bob:c () with
  | Ok (recovered, cls, _) ->
    Alcotest.(check bool) "unchanged" true (Shingles.equal recovered c);
    Alcotest.(check int) "all unchanged" 5 cls.Shingles.unchanged;
    Alcotest.(check int) "no fresh" 0 cls.Shingles.fresh
  | Error _ -> Alcotest.fail "failed on identical collections"

(* ---------- Edge cases ---------- *)

let test_shingle_validation () =
  Alcotest.(check bool) "k=0 rejected" true
    (try
       ignore (Shingles.shingle ~k:0 "hello world");
       false
     with Invalid_argument _ -> true)

let test_shingle_short_texts () =
  let empty = Shingles.shingle ~k:3 "" in
  Alcotest.(check bool) "empty text" true (Iset.is_empty (Shingles.shingle_set empty));
  let one = Shingles.shingle ~k:3 "hello" in
  Alcotest.(check int) "single word, one shingle" 1 (Iset.cardinal (Shingles.shingle_set one));
  let punct = Shingles.shingle ~k:3 "..., ---!" in
  Alcotest.(check bool) "punctuation only" true (Iset.is_empty (Shingles.shingle_set punct))

let test_resemblance_bounds () =
  let docs =
    List.map (Shingles.shingle ~k:2)
      [ "alpha beta gamma"; "alpha beta delta"; "x y z"; "" ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let r = Shingles.resemblance a b in
          Alcotest.(check bool) "in [0,1]" true (r >= 0.0 && r <= 1.0);
          Alcotest.(check bool) "symmetric" true (r = Shingles.resemblance b a))
        docs)
    docs;
  let e = Shingles.shingle ~k:2 "" in
  Alcotest.(check bool) "empty vs empty" true (Shingles.resemblance e e = 1.0)

let test_bindb_empty () =
  let db = Bindb.create ~columns:8 ~rows:[] in
  Alcotest.(check int) "no rows" 0 (Bindb.num_rows db);
  Alcotest.(check bool) "flip on empty rejected" true
    (try
       ignore (Bindb.flip_random_bits (Prng.create ~seed) db 1);
       false
     with Invalid_argument _ -> true)

let test_bindb_zero_flips_identity () =
  let rng = Prng.create ~seed in
  let db = random_db rng ~columns:16 ~rows:5 ~density:0.5 in
  Alcotest.(check bool) "identity" true (Bindb.equal db (Bindb.flip_random_bits rng db 0))

let test_bindb_column_mismatch () =
  let a = Bindb.create ~columns:4 ~rows:[ [| true; false; true; false |] ] in
  let b = Bindb.create ~columns:5 ~rows:[ [| true; false; true; false; true |] ] in
  Alcotest.(check bool) "mismatch rejected" true
    (try
       ignore (Bindb.reconcile Protocol.Naive ~seed ~d:1 ~alice:a ~bob:b ());
       false
     with Invalid_argument _ -> true)

let test_bindb_duplicate_rows_collapse () =
  (* Rows are a SET: duplicates collapse, per the unlabeled-rows model. *)
  let r = [| true; true; false |] in
  let db = Bindb.create ~columns:3 ~rows:[ r; Array.copy r; [| false; false; true |] ] in
  Alcotest.(check int) "two distinct rows" 2 (Bindb.num_rows db)

(* ---------- Datasets ---------- *)

module Datasets = Ssr_apps.Datasets
module Parent = Ssr_core.Parent

let dataset_families tag =
  let dseed = Prng.derive ~seed ~tag in
  [
    ("graph", Datasets.graph ~seed:dseed ~nodes:300 ~avg_degree:3);
    ( "zipf",
      Datasets.zipf ~seed:dseed ~parents:400 ~universe:(1 lsl 20) ~max_child_size:12 ~alpha:1.0
    );
    ("shingles", Datasets.shingle_corpus ~seed:dseed ~docs:250 ~shingles_per_doc:6 ~overlap:0.5);
  ]

let test_dataset_determinism () =
  List.iter2
    (fun (name, a) (_, b) ->
      let sa = a.Datasets.stream and sb = b.Datasets.stream in
      Alcotest.(check int) (name ^ " length") sa.Parent.length sb.Parent.length;
      for i = 0 to sa.Parent.length - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "%s child %d identical" name i)
          true
          (Iset.equal (sa.Parent.child i) (sb.Parent.child i))
      done;
      Alcotest.(check bool) (name ^ " digest identical") true
        (Parent.stream_hash ~seed sa = Parent.stream_hash ~seed sb);
      (* A different seed is a different stream. *)
      let other =
        match dataset_families 0x0FF5E7 with
        | l -> snd (List.find (fun (n, _) -> n = name) l)
      in
      Alcotest.(check bool) (name ^ " seed matters") false
        (Parent.stream_hash ~seed sa = Parent.stream_hash ~seed other.Datasets.stream))
    (dataset_families 0xD5) (dataset_families 0xD5)

let test_dataset_resumable () =
  List.iter
    (fun (name, inst) ->
      let st = inst.Datasets.stream in
      let full = List.of_seq (Datasets.to_seq st) in
      Alcotest.(check int) (name ^ " full walk") st.Parent.length (List.length full);
      List.iter
        (fun from ->
          let resumed = List.of_seq (Datasets.to_seq ~from st) in
          let expect = List.filteri (fun i _ -> i >= from) full in
          Alcotest.(check int)
            (Printf.sprintf "%s resume@%d length" name from)
            (List.length expect) (List.length resumed);
          List.iter2
            (fun a b ->
              Alcotest.(check bool) (Printf.sprintf "%s resume@%d child" name from) true
                (Iset.equal a b))
            expect resumed)
        [ 0; 1; 7; st.Parent.length / 2; st.Parent.length - 1; st.Parent.length ])
    (dataset_families 0xD6)

let test_dataset_children_distinct_and_bounded () =
  List.iter
    (fun (name, inst) ->
      let st = inst.Datasets.stream in
      let seen = Hashtbl.create (2 * st.Parent.length) in
      for i = 0 to st.Parent.length - 1 do
        let c = st.Parent.child i in
        Alcotest.(check bool) (name ^ " child non-empty") true (Iset.cardinal c > 0);
        Alcotest.(check bool) (name ^ " child size bound") true
          (Iset.cardinal c <= inst.Datasets.max_child_size);
        Iset.iter
          (fun e ->
            Alcotest.(check bool) (name ^ " element in universe") true
              (e >= 0 && e < inst.Datasets.universe))
          c;
        let key = Iset.hash c in
        (match Hashtbl.find_opt seen key with
        | Some prev ->
          Alcotest.(check bool)
            (Printf.sprintf "%s children %d and %d distinct" name prev i)
            false
            (Iset.equal c (st.Parent.child prev))
        | None -> ());
        Hashtbl.replace seen key i
      done)
    (dataset_families 0xD8)

let test_dataset_pair_edit_cost () =
  List.iter
    (fun (name, inst) ->
      List.iter
        (fun edits ->
          let twin = Datasets.pair ~seed:(Prng.derive ~seed ~tag:(17 + edits)) ~edits inst in
          let a = Parent.of_stream twin.Datasets.stream in
          let b = Parent.of_stream inst.Datasets.stream in
          (* Each edit adds one fresh element to one child, so the edited
             child is at distance [adds] from its base twin and is charged
             from both sides of the relaxed matching: cost = 2 * edits. *)
          Alcotest.(check int)
            (Printf.sprintf "%s %d edits cost" name edits)
            (2 * edits)
            (Parent.relaxed_matching_cost a b);
          Alcotest.(check bool) (name ^ " universe widened") true
            (twin.Datasets.universe = inst.Datasets.universe + edits))
        [ 0; 1; 6 ])
    (dataset_families 0xD9)

let test_dataset_stream_matches_materialized () =
  (* For every protocol stack, the streamed run recovers exactly
     [Parent.symmetric_diff] of the materialized parents: an independent
     reference for the delta. *)
  let inst =
    Datasets.zipf
      ~seed:(Prng.derive ~seed ~tag:0xDA)
      ~parents:120 ~universe:(1 lsl 20) ~max_child_size:10 ~alpha:1.0
  in
  let edits = 5 in
  let twin = Datasets.pair ~seed:(Prng.derive ~seed ~tag:0xDB) ~edits inst in
  let alice_m = Parent.of_stream twin.Datasets.stream in
  let bob_m = Parent.of_stream inst.Datasets.stream in
  let a_only_ref, b_only_ref = Parent.symmetric_diff alice_m bob_m in
  let sort = List.sort Iset.compare in
  let u = twin.Datasets.universe and h = twin.Datasets.max_child_size in
  List.iter
    (fun kind ->
      let rseed = Prng.derive ~seed ~tag:(Hashtbl.hash ("sm", Protocol.name kind)) in
      match
        Protocol.run_known_stream kind ~comm:(Comm.create ()) ~seed:rseed ~enc_seed:None
          ~d:(2 * edits) ~u ~h ~alice:twin.Datasets.stream ~bob:inst.Datasets.stream
      with
      | Ok { Protocol.delta; _ } ->
        let check_side label got expect =
          Alcotest.(check int)
            (Printf.sprintf "%s %s count" (Protocol.name kind) label)
            (List.length expect) (List.length got);
          List.iter2
            (fun x y ->
              Alcotest.(check bool) (Protocol.name kind ^ " " ^ label) true (Iset.equal x y))
            (sort got) (sort expect)
        in
        check_side "a_only" delta.Parent.a_only a_only_ref;
        check_side "b_only" delta.Parent.b_only b_only_ref
      | Error `Decode_failure -> Alcotest.fail (Protocol.name kind ^ ": stream run failed"))
    Protocol.all

(* ---------- qcheck ---------- *)

let prop_bindb_reconcile =
  QCheck.Test.make ~name:"bindb reconciliation across flips" ~count:20
    (QCheck.pair (QCheck.int_range 1 10) (QCheck.int_range 0 1000)) (fun (flips, s) ->
      let rng = Prng.create ~seed:(Int64.of_int (s + 1)) in
      let bob =
        Bindb.create ~columns:32
          ~rows:(List.init 15 (fun _ -> Array.init 32 (fun _ -> Prng.bernoulli rng 0.4)))
      in
      let alice = Bindb.flip_random_bits rng bob flips in
      match Bindb.reconcile Protocol.Cascade ~seed:(Int64.of_int (s + 7)) ~d:(2 * flips) ~alice ~bob () with
      | Ok (recovered, _) -> Bindb.equal recovered alice
      | Error _ -> QCheck.assume_fail ())

let qcheck_tests = List.map QCheck_alcotest.to_alcotest [ prop_bindb_reconcile ]

let () =
  Alcotest.run "ssr_apps"
    [
      ( "bindb",
        [
          Alcotest.test_case "representation" `Quick test_bindb_roundtrip_representation;
          Alcotest.test_case "width checked" `Quick test_bindb_width_checked;
          Alcotest.test_case "flip bits" `Quick test_bindb_flip_bits;
          Alcotest.test_case "reconcile all protocols" `Quick test_bindb_reconcile_all_protocols;
          Alcotest.test_case "reconcile unknown d" `Quick test_bindb_reconcile_unknown;
          Alcotest.test_case "identical" `Quick test_bindb_identical;
        ] );
      ( "shingles",
        [
          Alcotest.test_case "shingling" `Quick test_words_and_shingles;
          Alcotest.test_case "resemblance" `Quick test_resemblance;
          Alcotest.test_case "collection reconcile" `Quick test_collection_reconcile;
          Alcotest.test_case "collection identical" `Quick test_collection_identical;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "shingle validation" `Quick test_shingle_validation;
          Alcotest.test_case "short texts" `Quick test_shingle_short_texts;
          Alcotest.test_case "resemblance bounds" `Quick test_resemblance_bounds;
          Alcotest.test_case "bindb empty" `Quick test_bindb_empty;
          Alcotest.test_case "bindb zero flips" `Quick test_bindb_zero_flips_identity;
          Alcotest.test_case "bindb column mismatch" `Quick test_bindb_column_mismatch;
          Alcotest.test_case "duplicate rows collapse" `Quick test_bindb_duplicate_rows_collapse;
        ] );
      ( "datasets",
        [
          Alcotest.test_case "deterministic across rebuilds" `Quick test_dataset_determinism;
          Alcotest.test_case "resumable from any position" `Quick test_dataset_resumable;
          Alcotest.test_case "children distinct and bounded" `Quick
            test_dataset_children_distinct_and_bounded;
          Alcotest.test_case "pair edit cost exact" `Quick test_dataset_pair_edit_cost;
          Alcotest.test_case "stream delta = materialized diff (all stacks)" `Quick
            test_dataset_stream_matches_materialized;
        ] );
      ("properties", qcheck_tests);
    ]
