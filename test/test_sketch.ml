(* Tests for IBLTs and the two set-difference estimators. *)

module Prng = Ssr_util.Prng
module Iset = Ssr_util.Iset
module Buf = Ssr_util.Buf
module Iblt = Ssr_sketch.Iblt
module Strata = Ssr_sketch.Strata_estimator
module L0 = Ssr_sketch.L0_estimator

let seed = 0xB10B5EEDL

let params ?(cells = 32) ?(k = 4) ?(key_len = 8) () : Iblt.params =
  { cells; k; key_len; seed }

let decode_exn t =
  match Iblt.decode_ints t with
  | Ok (pos, neg) -> (List.sort compare pos, List.sort compare neg)
  | Error `Peel_stuck -> Alcotest.fail "decode failed"

(* ---------- IBLT basics ---------- *)

let test_empty_decodes () =
  let t = Iblt.create (params ()) in
  Alcotest.(check bool) "empty" true (Iblt.is_empty t);
  let pos, neg = decode_exn t in
  Alcotest.(check (list int)) "no positives" [] pos;
  Alcotest.(check (list int)) "no negatives" [] neg

let test_insert_decode () =
  let t = Iblt.create (params ()) in
  List.iter (Iblt.insert_int t) [ 10; 20; 30 ];
  let pos, neg = decode_exn t in
  Alcotest.(check (list int)) "positives" [ 10; 20; 30 ] pos;
  Alcotest.(check (list int)) "negatives" [] neg

let test_insert_delete_cancels () =
  let t = Iblt.create (params ()) in
  Iblt.insert_int t 42;
  Iblt.delete_int t 42;
  Alcotest.(check bool) "cancelled" true (Iblt.is_empty t)

let test_negative_counts () =
  let t = Iblt.create (params ()) in
  List.iter (Iblt.delete_int t) [ 7; 8 ];
  Iblt.insert_int t 9;
  let pos, neg = decode_exn t in
  Alcotest.(check (list int)) "positives" [ 9 ] pos;
  Alcotest.(check (list int)) "negatives" [ 7; 8 ] neg

let test_subtract_gives_difference () =
  let a = Iblt.create (params ()) in
  let b = Iblt.create (params ()) in
  List.iter (Iblt.insert_int a) [ 1; 2; 3; 4; 100 ];
  List.iter (Iblt.insert_int b) [ 3; 4; 5; 6; 100 ];
  let pos, neg = decode_exn (Iblt.subtract a b) in
  Alcotest.(check (list int)) "alice only" [ 1; 2 ] pos;
  Alcotest.(check (list int)) "bob only" [ 5; 6 ] neg

let test_overload_detected () =
  (* 100 keys in a 12-cell table cannot decode, and must say so. *)
  let t = Iblt.create (params ~cells:12 ()) in
  for i = 1 to 100 do
    Iblt.insert_int t i
  done;
  match Iblt.decode_ints t with
  | Error `Peel_stuck -> ()
  | Ok _ -> Alcotest.fail "overloaded table decoded"

let test_duplicate_key_detected () =
  (* Duplicate insertions create even counts that cannot peel. *)
  let t = Iblt.create (params ()) in
  Iblt.insert_int t 5;
  Iblt.insert_int t 5;
  match Iblt.decode_ints t with
  | Error `Peel_stuck -> ()
  | Ok ([], []) -> Alcotest.fail "dropped duplicate silently"
  | Ok _ -> Alcotest.fail "invented keys"

let test_serialization_roundtrip () =
  let prm = params ~cells:24 ~key_len:12 () in
  let t = Iblt.create prm in
  List.iter (fun x -> Iblt.insert t (Bytes.cat (Bytes.make 4 'x') (Buf.of_int_list [ x ]))) [ 1; 2; 3 ];
  let body = Iblt.body_bytes t in
  Alcotest.(check int) "body length" (Iblt.body_length prm) (Bytes.length body);
  let t' = Iblt.of_body_bytes prm body in
  Alcotest.(check bytes) "roundtrip" body (Iblt.body_bytes t');
  match (Iblt.decode t, Iblt.decode t') with
  | Ok a, Ok b ->
    Alcotest.(check int) "same decode size" (List.length a.positives) (List.length b.positives)
  | _ -> Alcotest.fail "decode failed"

let test_wide_keys () =
  let prm = params ~cells:32 ~key_len:40 () in
  let a = Iblt.create prm and b = Iblt.create prm in
  let key i =
    let k = Bytes.make 40 '\000' in
    Buf.set_int_le k 0 i;
    Buf.set_int_le k 32 (i * i);
    k
  in
  for i = 1 to 10 do
    Iblt.insert a (key i)
  done;
  for i = 3 to 12 do
    Iblt.insert b (key i)
  done;
  (match Iblt.decode (Iblt.subtract a b) with
  | Ok { positives; negatives } ->
    Alcotest.(check int) "two alice-only" 2 (List.length positives);
    Alcotest.(check int) "two bob-only" 2 (List.length negatives);
    let ints = List.sort compare (List.map (fun k -> Buf.get_int_le k 0) positives) in
    Alcotest.(check (list int)) "alice keys" [ 1; 2 ] ints
  | Error `Peel_stuck -> Alcotest.fail "decode failed")

let test_param_mismatch_rejected () =
  let a = Iblt.create (params ~cells:16 ()) in
  let b = Iblt.create (params ~cells:32 ()) in
  Alcotest.check_raises "mismatch" (Invalid_argument "Iblt.subtract: parameter mismatch") (fun () ->
      ignore (Iblt.subtract a b))

let test_cells_rounded_to_k () =
  let t = Iblt.create (params ~cells:10 ~k:4 ()) in
  Alcotest.(check int) "rounded up" 12 (Iblt.params t).Iblt.cells

(* Theorem 2.1 at small scale: with ~2x cells, random difference sets decode
   essentially always. *)
let test_decode_success_rate () =
  let trials = 200 in
  let failures = ref 0 in
  let rng = Prng.create ~seed in
  for trial = 1 to trials do
    let d = 1 + (trial mod 20) in
    let prm : Iblt.params =
      {
        cells = Iblt.recommended_cells ~k:4 ~diff_bound:d;
        k = 4;
        key_len = 8;
        seed = Prng.derive ~seed ~tag:trial;
      }
    in
    let t = Iblt.create prm in
    let elts = Iset.random_subset rng ~universe:1_000_000 ~size:d in
    Iset.iter (fun x -> Iblt.insert_int t x) elts;
    match Iblt.decode_ints t with
    | Ok (pos, _) when Iset.equal (Iset.of_list pos) elts -> ()
    | _ -> incr failures
  done;
  (* Theorem 2.1 allows a 1/poly(m) failure rate; at these tiny table sizes
     that is a small but visible percentage. *)
  Alcotest.(check bool) (Printf.sprintf "failures=%d" !failures) true (!failures <= 6)

(* ---------- qcheck: IBLT subtract/decode recovers random differences ---------- *)

let prop_subtract_decode =
  let gen = QCheck.Gen.(pair (list_size (int_bound 30) (int_bound 10_000)) (list_size (int_bound 30) (int_bound 10_000))) in
  QCheck.Test.make ~name:"subtract+decode recovers set difference" ~count:100 (QCheck.make gen)
    (fun (la, lb) ->
      let sa = Iset.of_list la and sb = Iset.of_list lb in
      let d = max 1 (Iset.sym_diff_size sa sb) in
      let prm : Iblt.params =
        { cells = Iblt.recommended_cells ~k:4 ~diff_bound:d; k = 4; key_len = 8; seed = 77L }
      in
      let a = Iblt.create prm and b = Iblt.create prm in
      Iset.iter (fun x -> Iblt.insert_int a x) sa;
      Iset.iter (fun x -> Iblt.insert_int b x) sb;
      match Iblt.decode_ints (Iblt.subtract a b) with
      | Ok (pos, neg) ->
        Iset.equal (Iset.of_list pos) (Iset.diff sa sb) && Iset.equal (Iset.of_list neg) (Iset.diff sb sa)
      | Error `Peel_stuck -> QCheck.assume_fail ())

(* ---------- Estimators ---------- *)

let make_sets rng ~n ~d =
  let base = Iset.random_subset rng ~universe:100_000_000 ~size:n in
  let arr = Iset.to_array base in
  (* Move d elements out of Bob's copy and d fresh ones in is overkill; the
     simple construction below changes exactly d memberships. *)
  let bob = ref base in
  let changed = ref 0 in
  while !changed < d do
    if Prng.bool rng && Iset.cardinal !bob > 0 then begin
      let idx = Prng.int_below rng (Array.length arr) in
      if Iset.mem arr.(idx) !bob then begin
        bob := Iset.remove arr.(idx) !bob;
        incr changed
      end
    end
    else begin
      let x = 100_000_000 + Prng.int_below rng 100_000_000 in
      if not (Iset.mem x !bob) then begin
        bob := Iset.add x !bob;
        incr changed
      end
    end
  done;
  (base, !bob)

let test_l0_exact_cancellation () =
  let a = L0.create ~seed () in
  List.iter (L0.update a L0.S1) [ 1; 2; 3 ];
  List.iter (L0.update a L0.S2) [ 1; 2; 3 ];
  Alcotest.(check int) "identical sets estimate 0" 0 (L0.query a)

let test_l0_small_exact () =
  let a = L0.create ~seed () in
  List.iter (L0.update a L0.S1) [ 1; 2; 3; 10; 20 ];
  List.iter (L0.update a L0.S2) [ 3; 10; 20; 30 ];
  (* difference = {1,2,30}: sparse regime is near-exact *)
  let est = L0.query a in
  Alcotest.(check bool) (Printf.sprintf "estimate %d ~ 3" est) true (est >= 2 && est <= 6)

let test_l0_merge_matches_single () =
  let a = L0.create ~seed () and b = L0.create ~seed () and whole = L0.create ~seed () in
  for x = 0 to 99 do
    L0.update a L0.S1 x;
    L0.update whole L0.S1 x
  done;
  for x = 50 to 149 do
    L0.update b L0.S2 x;
    L0.update whole L0.S2 x
  done;
  Alcotest.(check int) "merge = single-stream" (L0.query whole) (L0.query (L0.merge a b))

let test_l0_constant_factor () =
  let rng = Prng.create ~seed in
  List.iter
    (fun d ->
      let ok = ref 0 in
      let trials = 20 in
      for trial = 1 to trials do
        let sa, sb = make_sets rng ~n:2000 ~d in
        let est_seed = Prng.derive ~seed ~tag:(d * 1000 + trial) in
        let e = L0.create ~seed:est_seed () in
        Iset.iter (fun x -> L0.update e L0.S1 x) sa;
        Iset.iter (fun x -> L0.update e L0.S2 x) sb;
        let est = L0.query e in
        if est >= d / 8 && est <= d * 8 then incr ok
      done;
      Alcotest.(check bool)
        (Printf.sprintf "d=%d ok=%d/%d" d !ok trials)
        true
        (!ok >= trials - 2))
    [ 4; 16; 64; 256; 1024 ]

let test_l0_serialization () =
  let e = L0.create ~seed () in
  List.iter (L0.update e L0.S1) [ 5; 17; 99 ];
  let b = L0.to_bytes e in
  Alcotest.(check int) "size matches" (L0.size_bits e) (8 * Bytes.length b);
  let e' = L0.of_bytes ~seed b in
  Alcotest.(check int) "query preserved" (L0.query e) (L0.query e')

let test_strata_exact_small () =
  let a = Strata.create ~seed () and b = Strata.create ~seed () in
  List.iter (Strata.add a) [ 1; 2; 3; 4; 5 ];
  List.iter (Strata.add b) [ 4; 5; 6 ];
  (* Difference is 4; small differences decode exactly. *)
  Alcotest.(check int) "exact for small d" 4 (Strata.estimate ~local:a ~remote:b)

let test_strata_constant_factor () =
  let rng = Prng.create ~seed in
  List.iter
    (fun d ->
      let ok = ref 0 in
      let trials = 10 in
      for trial = 1 to trials do
        let sa, sb = make_sets rng ~n:2000 ~d in
        let est_seed = Prng.derive ~seed ~tag:(d * 555 + trial) in
        let ea = Strata.create ~seed:est_seed () and eb = Strata.create ~seed:est_seed () in
        Iset.iter (Strata.add ea) sa;
        Iset.iter (Strata.add eb) sb;
        let est = Strata.estimate ~local:ea ~remote:eb in
        if est >= d / 4 && est <= d * 4 then incr ok
      done;
      Alcotest.(check bool) (Printf.sprintf "d=%d ok=%d/%d" d !ok trials) true (!ok >= trials - 2))
    [ 8; 64; 512 ]

let test_l0_smaller_than_strata () =
  (* The headline of Theorem 3.1: the l0 estimator drops the O(log u) space
     factor of the strata estimator. *)
  let l0 = L0.create ~seed () in
  let st = Strata.create ~seed () in
  Alcotest.(check bool) "l0 estimator is smaller" true (L0.size_bits l0 * 4 < Strata.size_bits st)

(* ---------- Failure injection and argument validation ---------- *)

let test_iblt_bad_body_length () =
  let prm = params () in
  Alcotest.check_raises "wrong body length" (Invalid_argument "Iblt.of_body_bytes: length mismatch")
    (fun () -> ignore (Iblt.of_body_bytes prm (Bytes.create 3)))

let test_iblt_bad_key_length () =
  let t = Iblt.create (params ~key_len:8 ()) in
  Alcotest.check_raises "wrong key length" (Invalid_argument "Iblt: key length mismatch") (fun () ->
      Iblt.insert t (Bytes.create 7))

let test_iblt_corruption_never_silent () =
  (* Flip single bytes of a serialized table: decoding must either fail or
     produce something different from the original content - never crash,
     never silently return the original keys as if nothing happened when the
     counts no longer match. *)
  let prm = params ~cells:24 () in
  let original = Iblt.create prm in
  List.iter (Iblt.insert_int original) [ 11; 22; 33; 44 ];
  let body = Iblt.body_bytes original in
  let rng = Prng.create ~seed in
  for _ = 1 to 50 do
    let corrupted = Bytes.copy body in
    let i = Prng.int_below rng (Bytes.length body) in
    Bytes.set corrupted i (Char.chr (Char.code (Bytes.get corrupted i) lxor (1 + Prng.int_below rng 255)));
    let t = Iblt.of_body_bytes prm corrupted in
    (* Corrupting the two dead bits above each 62-bit checksum is erased by
       deserialization and carries no information; only corruption that
       survives a round trip must be visible. *)
    let information_free = Bytes.equal (Iblt.body_bytes t) body in
    match Iblt.decode_ints t with
    | Error `Peel_stuck -> ()
    | Ok (pos, neg) ->
      let same = List.sort compare pos = [ 11; 22; 33; 44 ] && neg = [] in
      if not information_free then Alcotest.(check bool) "corruption visible" false same
  done

let test_iblt_double_subtract_is_negation () =
  let prm = params () in
  let a = Iblt.create prm and b = Iblt.create prm in
  List.iter (Iblt.insert_int a) [ 1; 2 ];
  List.iter (Iblt.insert_int b) [ 2; 3 ];
  let ab = Iblt.subtract a b and ba = Iblt.subtract b a in
  (match (Iblt.decode_ints ab, Iblt.decode_ints ba) with
  | Ok (p1, n1), Ok (p2, n2) ->
    Alcotest.(check (list int)) "pos/neg swap (pos)" (List.sort compare p1) (List.sort compare n2);
    Alcotest.(check (list int)) "pos/neg swap (neg)" (List.sort compare n1) (List.sort compare p2)
  | _ -> Alcotest.fail "decode failed");
  (* a - b then add b back must equal a. *)
  let restored = Iblt.subtract ab (Iblt.subtract b (Iblt.create prm)) in
  ignore restored

let test_l0_negative_element_rejected () =
  let e = L0.create ~seed () in
  Alcotest.check_raises "negative" (Invalid_argument "L0_estimator.update: negative element")
    (fun () -> L0.update e L0.S1 (-1))

let test_l0_merge_mismatch_rejected () =
  let a = L0.create ~seed () in
  let b = L0.create ~seed:0x1234L () in
  Alcotest.check_raises "seed mismatch" (Invalid_argument "L0_estimator.merge: shape/seed mismatch")
    (fun () -> ignore (L0.merge a b))

let test_l0_of_bytes_length_checked () =
  Alcotest.check_raises "bad length" (Invalid_argument "L0_estimator.of_bytes: length mismatch")
    (fun () -> ignore (L0.of_bytes ~seed (Bytes.create 3)))

let test_l0_median_basics () =
  let m = L0.Median.create ~seed ~copies:5 () in
  Alcotest.(check int) "five copies" 5 (Array.length (L0.Median.copies m));
  List.iter (L0.Median.update m L0.S1) [ 1; 2; 3; 4 ];
  List.iter (L0.Median.update m L0.S2) [ 3; 4; 5 ];
  (* difference = {1,2,5} *)
  let est = L0.Median.query m in
  Alcotest.(check bool) (Printf.sprintf "median est %d near 3" est) true (est >= 2 && est <= 6);
  Alcotest.check_raises "copies >= 1" (Invalid_argument "L0_estimator.Median.create: copies must be positive")
    (fun () -> ignore (L0.Median.create ~seed ~copies:0 ()))

let test_l0_median_merge () =
  let a = L0.Median.create ~seed ~copies:3 () and b = L0.Median.create ~seed ~copies:3 () in
  let whole = L0.Median.create ~seed ~copies:3 () in
  for x = 0 to 50 do
    L0.Median.update a L0.S1 x;
    L0.Median.update whole L0.S1 x
  done;
  for x = 40 to 90 do
    L0.Median.update b L0.S2 x;
    L0.Median.update whole L0.S2 x
  done;
  Alcotest.(check int) "merge = single stream" (L0.Median.query whole) (L0.Median.query (L0.Median.merge a b))

let test_l0_median_amplifies () =
  (* Across many trials the median-of-5 estimate should be inside [d/4, 4d]
     at least as often as a single estimator. *)
  let rng = Prng.create ~seed in
  let trials = 30 in
  let d = 64 in
  let single_ok = ref 0 and median_ok = ref 0 in
  for t = 1 to trials do
    let sa, sb = make_sets rng ~n:1500 ~d in
    let es = Prng.derive ~seed ~tag:(7777 + t) in
    let single = L0.create ~seed:es () in
    let med = L0.Median.create ~seed:es ~copies:5 () in
    Iset.iter (fun x -> L0.update single L0.S1 x; L0.Median.update med L0.S1 x) sa;
    Iset.iter (fun x -> L0.update single L0.S2 x; L0.Median.update med L0.S2 x) sb;
    let within v = v >= d / 4 && v <= 4 * d in
    if within (L0.query single) then incr single_ok;
    if within (L0.Median.query med) then incr median_ok
  done;
  Alcotest.(check bool)
    (Printf.sprintf "median (%d) >= single (%d) - 2" !median_ok !single_ok)
    true
    (!median_ok >= !single_ok - 2 && !median_ok >= trials - 3)

let test_strata_shape_mismatch () =
  let a = Strata.create ~seed ~strata:16 () in
  let b = Strata.create ~seed ~strata:32 () in
  Alcotest.check_raises "shape mismatch" (Invalid_argument "Strata_estimator.estimate: shape mismatch")
    (fun () -> ignore (Strata.estimate ~local:a ~remote:b))

let test_strata_bad_params () =
  Alcotest.check_raises "strata range" (Invalid_argument "Strata_estimator.create: strata out of range")
    (fun () -> ignore (Strata.create ~seed ~strata:0 ()))

(* ---------- Differential: optimized hot path vs simple reference ---------- *)

(* Reference model of an IBLT's semantics: a signed multiset of keys kept
   as a sorted association list. The optimized table's decode must agree
   with it exactly whenever peeling succeeds, across randomized
   insert/delete/subtract workloads. *)
module Ref_model = struct
  type t = (string, int) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let bump (m : t) key sign =
    let k = Bytes.to_string key in
    let c = (try Hashtbl.find m k with Not_found -> 0) + sign in
    if c = 0 then Hashtbl.remove m k else Hashtbl.replace m k c

  let subtract (a : t) (b : t) =
    let out = create () in
    Hashtbl.iter (fun k c -> Hashtbl.replace out k c) a;
    Hashtbl.iter
      (fun k c ->
        let c' = (try Hashtbl.find out k with Not_found -> 0) - c in
        if c' = 0 then Hashtbl.remove out k else Hashtbl.replace out k c')
      b;
    out

  let sides (m : t) =
    let pos = ref [] and neg = ref [] in
    Hashtbl.iter
      (fun k c ->
        if c = 1 then pos := k :: !pos
        else if c = -1 then neg := k :: !neg
        else raise Exit (* |count| > 1: not decodable as a set difference *))
      m;
    (List.sort compare !pos, List.sort compare !neg)
end

let random_key rng ~key_len =
  let b = Bytes.create key_len in
  for i = 0 to key_len - 1 do
    Bytes.set b i (Char.chr (Prng.int_below rng 256))
  done;
  b

let test_differential_vs_model () =
  (* Randomized workloads over byte keys: drive the optimized IBLT and the
     reference model with identical operations and require identical
     recovered difference sets. Wide keys exercise the word-XOR tail. *)
  let rng = Prng.create ~seed:(Prng.derive ~seed ~tag:0xD1FF) in
  let agreements = ref 0 in
  for trial = 1 to 60 do
    let key_len = [| 8; 9; 16; 23 |].(trial mod 4) in
    let ops = 1 + Prng.int_below rng 20 in
    let prm : Iblt.params =
      {
        cells = Iblt.recommended_cells ~k:4 ~diff_bound:(2 * ops);
        k = 4;
        key_len;
        seed = Prng.derive ~seed ~tag:(0xD1FF00 + trial);
      }
    in
    let ta = Iblt.create prm and tb = Iblt.create prm in
    let ma = Ref_model.create () and mb = Ref_model.create () in
    (* Shared keys cancel in the subtraction; per-side keys survive. *)
    for _ = 1 to ops do
      let key = random_key rng ~key_len in
      match Prng.int_below rng 4 with
      | 0 ->
        Iblt.insert ta key;
        Ref_model.bump ma key 1
      | 1 ->
        Iblt.insert tb key;
        Ref_model.bump mb key 1
      | 2 ->
        Iblt.delete tb key;
        Ref_model.bump mb key (-1)
      | _ ->
        Iblt.insert ta key;
        Iblt.insert tb key;
        Ref_model.bump ma key 1;
        Ref_model.bump mb key 1
    done;
    let diff = Iblt.subtract ta tb in
    match (Iblt.decode diff, Ref_model.sides (Ref_model.subtract ma mb)) with
    | Ok { Iblt.positives; negatives }, (mpos, mneg) ->
      let str l = List.sort compare (List.map Bytes.to_string l) in
      Alcotest.(check (list string)) "positives" mpos (str positives);
      Alcotest.(check (list string)) "negatives" mneg (str negatives);
      incr agreements
    | Error `Peel_stuck, _ -> ()
    | exception Exit -> ()
  done;
  (* Peeling can fail and |count| > 1 multisets are legitimately
     undecodable, but the bulk of trials must actually compare. *)
  Alcotest.(check bool)
    (Printf.sprintf "compared %d/60" !agreements)
    true (!agreements >= 40)

let test_differential_int_fast_path () =
  (* insert_int/delete_int reuse an internal scratch key; they must yield
     byte-identical tables to the simple allocate-a-key path. *)
  let rng = Prng.create ~seed:(Prng.derive ~seed ~tag:0xFA57) in
  List.iter
    (fun key_len ->
      let prm = params ~cells:64 ~key_len () in
      let fast = Iblt.create prm and simple = Iblt.create prm in
      for _ = 1 to 200 do
        let x = Prng.int_below rng max_int in
        let key = Bytes.make key_len '\000' in
        Buf.set_int_le key 0 x;
        if Prng.bool rng then begin
          Iblt.insert_int fast x;
          Iblt.insert simple key
        end
        else begin
          Iblt.delete_int fast x;
          Iblt.delete simple key
        end
      done;
      Alcotest.(check bool)
        (Printf.sprintf "key_len=%d identical body" key_len)
        true
        (Bytes.equal (Iblt.body_bytes fast) (Iblt.body_bytes simple)))
    [ 8; 12 ]

(* ---------- partial decode, residuals, stash ---------- *)

let int_key x =
  let b = Bytes.make 8 '\000' in
  Buf.set_int_le b 0 x;
  b

let sorted_ints_of_keys keys =
  List.sort compare (List.filter_map (fun b -> Buf.get_int_le_opt b 0) keys)

(* decode_partial must agree with decode exactly: [`Decoded] iff [Ok], with
   the same key sets, across random signed workloads at several loads. *)
let test_decode_partial_agrees_with_decode () =
  let rng = Prng.create ~seed:(Prng.derive ~seed ~tag:0x9A97) in
  let decoded = ref 0 and salvaged = ref 0 in
  for trial = 0 to 59 do
    let cells = 16 + (4 * (trial mod 8)) in
    let n = 1 + Prng.int_below rng (2 * cells) in
    let t = Iblt.create (params ~cells ()) in
    for _ = 1 to n do
      let x = Prng.int_below rng (1 lsl 40) in
      if Prng.bool rng then Iblt.insert_int t x else Iblt.delete_int t x
    done;
    match (Iblt.decode t, Iblt.decode_partial t) with
    | Ok d, `Decoded p ->
      incr decoded;
      Alcotest.(check (list int)) "positives" (sorted_ints_of_keys d.Iblt.positives)
        (sorted_ints_of_keys p.Iblt.positives);
      Alcotest.(check (list int)) "negatives" (sorted_ints_of_keys d.Iblt.negatives)
        (sorted_ints_of_keys p.Iblt.negatives)
    | Error `Peel_stuck, `Salvaged (_, r) ->
      incr salvaged;
      Alcotest.(check bool) "stuck core is live" true (Iblt.residual_cells r > 0)
    | Ok _, `Salvaged _ -> Alcotest.fail "decode succeeded but decode_partial salvaged"
    | Error `Peel_stuck, `Decoded _ -> Alcotest.fail "decode stuck but decode_partial decoded"
  done;
  (* The load sweep must actually exercise both outcomes. *)
  Alcotest.(check bool)
    (Printf.sprintf "both paths hit (%d decoded, %d salvaged)" !decoded !salvaged)
    true
    (!decoded > 0 && !salvaged > 0)

(* Salvaged prefix + residual composes to the full difference: deleting the
   missing keys out of the re-expanded residual leaves an empty table. *)
let test_salvage_composes_to_full_difference () =
  let rng = Prng.create ~seed:(Prng.derive ~seed ~tag:0xC0DE) in
  let stuck = ref 0 in
  for _ = 1 to 40 do
    let t = Iblt.create (params ~cells:24 ()) in
    let inserted = ref [] and deleted = ref [] in
    for _ = 1 to 30 do
      let x = Prng.int_below rng (1 lsl 40) in
      if List.mem x !inserted || List.mem x !deleted then ()
      else if Prng.bool rng then begin
        Iblt.insert_int t x;
        inserted := x :: !inserted
      end
      else begin
        Iblt.delete_int t x;
        deleted := x :: !deleted
      end
    done;
    match Iblt.decode_partial t with
    | `Decoded _ -> ()
    | `Salvaged (prefix, r) ->
      incr stuck;
      let got_pos = sorted_ints_of_keys prefix.Iblt.positives in
      let got_neg = sorted_ints_of_keys prefix.Iblt.negatives in
      let rest = Iblt.residual_to_table r in
      List.iter (fun x -> if not (List.mem x got_pos) then Iblt.delete_int rest x) !inserted;
      List.iter (fun x -> if not (List.mem x got_neg) then Iblt.insert_int rest x) !deleted;
      Alcotest.(check bool) "prefix + residual = whole difference" true (Iblt.is_empty rest)
  done;
  Alcotest.(check bool) (Printf.sprintf "stalls exercised (%d)" !stuck) true (!stuck > 0)

let test_residual_wire_roundtrip () =
  let prm = params ~cells:24 () in
  let t = Iblt.create prm in
  (* Overload so the peel stalls and the residual is non-trivial. *)
  for x = 1 to 60 do
    Iblt.insert_int t (x * 7919)
  done;
  match Iblt.decode_partial t with
  | `Decoded _ -> Alcotest.fail "expected a stall"
  | `Salvaged (_, r) -> (
    let wire = Iblt.residual_bytes r in
    match Iblt.residual_of_bytes_opt prm wire with
    | None -> Alcotest.fail "canonical residual encoding rejected"
    | Some r' ->
      Alcotest.(check int) "cells" (Iblt.residual_cells r) (Iblt.residual_cells r');
      Alcotest.(check bool) "tables byte-identical" true
        (Bytes.equal
           (Iblt.body_bytes (Iblt.residual_to_table r))
           (Iblt.body_bytes (Iblt.residual_to_table r')));
      Alcotest.(check bool) "re-serializes identically" true
        (Bytes.equal wire (Iblt.residual_bytes r')))

(* The stash fixpoint: canceling externally recovered keys out of a stashed
   residual re-peels it and returns exactly the remaining keys. *)
let test_stash_absorb_cancels_and_cascades () =
  let prm = params ~cells:12 () in
  let t = Iblt.create prm in
  let keys = List.init 18 (fun i -> ((i + 1) * 6101) land ((1 lsl 40) - 1)) in
  List.iter (Iblt.insert_int t) keys;
  match Iblt.decode_partial t with
  | `Decoded _ -> Alcotest.fail "expected a stall at 18 keys in 12 cells"
  | `Salvaged (prefix, r) -> (
    let stash = Ssr_sketch.Iblt_stash.create () in
    match Ssr_sketch.Iblt_stash.offload stash r with
    | None -> Alcotest.fail "offload refused a live residual"
    | Some _ ->
      let recovered = sorted_ints_of_keys prefix.Iblt.positives in
      let missing = List.filter (fun x -> not (List.mem x recovered)) keys in
      (* Reveal all but two of the missing keys; the stash must peel out
         exactly the last two. *)
      let reveal = List.filteri (fun i _ -> i >= 2) missing in
      let expect = List.sort compare (List.filteri (fun i _ -> i < 2) missing) in
      let pos, neg =
        Ssr_sketch.Iblt_stash.absorb stash ~positives:(List.map int_key reveal) ~negatives:[] ()
      in
      Alcotest.(check (list int)) "cascaded recoveries" expect (sorted_ints_of_keys pos);
      Alcotest.(check (list int)) "no negatives" [] (sorted_ints_of_keys neg);
      Alcotest.(check int) "entry retired" 0 (Ssr_sketch.Iblt_stash.entry_count stash))

(* End to end: a family ground against the attempt-0 schedule stalls the
   plain one-shot protocol, and the salted-rehash salvage escalation
   recovers the exact difference. *)
let test_adversarial_family_rescued_by_salvage () =
  let module Adversarial = Ssr_apps.Adversarial in
  let module Set_recon = Ssr_setrecon.Set_recon in
  let module Hashing = Ssr_util.Hashing in
  let d = 16 in
  let tseed = 0xAD5EEDL in
  let prm : Iblt.params =
    {
      cells = Iblt.recommended_cells ~k:4 ~diff_bound:d;
      k = 4;
      key_len = 8;
      seed = Hashing.attempt_seed ~seed:tseed ~attempt:0;
    }
  in
  let alice, bob = Adversarial.workload ~prm ~bob_size:100 ~count:d () in
  (match
     Set_recon.reconcile_known_d ~seed:(Hashing.attempt_seed ~seed:tseed ~attempt:0) ~d ~alice
       ~bob ()
   with
  | Ok _ -> Alcotest.fail "adversarial family failed to stall the plain protocol"
  | Error (`Decode_failure _) -> ());
  match Set_recon.reconcile_salvage ~seed:tseed ~initial_d:d ~alice ~bob () with
  | Error (`Decode_failure _) -> Alcotest.fail "salvage escalation failed"
  | Ok o ->
    Alcotest.(check bool) "exact recovery" true (Ssr_util.Iset.equal o.Set_recon.recovered alice);
    Alcotest.(check bool) "difference oriented" true
      (Ssr_util.Iset.equal o.Set_recon.alice_minus_bob (Ssr_util.Iset.diff alice bob))


(* ---------- packed-cell layout: golden wire bytes, widths, paths ---------- *)

let hex_of_bytes b =
  String.concat ""
    (List.init (Bytes.length b) (fun i -> Printf.sprintf "%02x" (Char.code (Bytes.get b i))))

(* The default-width wire format is pinned byte-for-byte: these hex strings
   were captured from the pre-packed-layout implementation, so any layout
   or hash-schedule change that touches serialized bytes fails here before
   it can break cross-version transcripts. *)
let test_wire_golden () =
  let prm : Iblt.params = { cells = 13; k = 4; key_len = 8; seed = 0x5EED0001L } in
  let t = Iblt.create prm in
  List.iter (Iblt.insert_int t) [ 1; 2; 42; 1_000_000_007 ];
  Iblt.delete_int t 7;
  Alcotest.(check string) "int keys" "010000000100000000000000f520b2421a887c220200000028ca9a3b000000000e5882a9ef2ba606000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000030000002cca9a3b000000006f87853827b4601700000000050000000000000094ffb5d3d217ba3300000000000000000000000000000000000000000200000028000000000000000be4c04c203096370100000007ca9a3b000000006146057bbf7cdd04ffffffff070000000000000064fa479e7067ed35010000000100000000000000f520b2421a887c22010000002a00000000000000fbe132018240c1310200000005ca9a3b000000009143f7361d0c8a02ffffffff070000000000000064fa479e7067ed35010000000100000000000000f520b2421a887c22" (hex_of_bytes (Iblt.body_bytes t));
  let prm2 : Iblt.params = { cells = 8; k = 4; key_len = 13; seed = 0x5EED0002L } in
  let t2 = Iblt.create prm2 in
  List.iter
    (fun x ->
      let k = Bytes.make 13 '\000' in
      Buf.set_int_le k 0 x;
      Bytes.set k 12 (Char.chr (x land 0xFF));
      Iblt.insert t2 k)
    [ 3; 5; 9000 ];
  Alcotest.(check string) "wide keys" "01000000050000000000000000000000052251f24ecd43ff08020000002b23000000000000000000002b771bcb55e4167b21030000002e23000000000000000000002e554a391b295584290000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000030000002e23000000000000000000002e554a391b2955842900000000000000000000000000000000000000000000000000030000002e23000000000000000000002e554a391b29558429" (hex_of_bytes (Iblt.body_bytes t2));
  let prm3 : Iblt.params = { cells = 12; k = 4; key_len = 8; seed = 0x5EED0003L } in
  let t3 = Iblt.create prm3 in
  for x = 1 to 40 do
    Iblt.insert_int t3 (x * 7919)
  done;
  match Iblt.decode_partial t3 with
  | `Decoded _ -> Alcotest.fail "overloaded table unexpectedly decoded"
  | `Salvaged (_, r) ->
    Alcotest.(check string) "residual" "0c000000000000000c000000a8bb05000000000030c2928951291035010000000e000000ccce010000000000ee499f05de9c430a020000000e000000e42e030000000000c9eb2319564f271e03000000110000009e19070000000000ad319947092226300400000009000000c0bf0700000000009a0bce2ec4006f0a050000000e000000defd070000000000205a79fc14d83d1b060000000d000000ee9d020000000000f821aa1534838800070000000c00000044a40000000000004ca5638a8d78dc1d080000000f0000002a62050000000000a3e4e70a6001203c0900000010000000387107000000000033adc12700c087040a0000000c000000412502000000000045939fcf90a6c1310b0000000c000000f90f020000000000615e707d499c3214" (hex_of_bytes (Iblt.residual_bytes r))

(* Narrow checksum widths change the cell layout but not the semantics:
   random workloads must decode to the reference model's difference at
   every width, and the body must roundtrip through the width-aware
   parsers. *)
let test_checksum_widths () =
  let rng = Prng.create ~seed:(Prng.derive ~seed ~tag:0xC4EC) in
  let agreements = ref 0 in
  List.iter
    (fun check_bits ->
      for trial = 1 to 12 do
        let key_len = [| 8; 9; 16; 23 |].(trial mod 4) in
        let ops = 1 + Prng.int_below rng 16 in
        let prm : Iblt.params =
          {
            cells = Iblt.recommended_cells ~k:4 ~diff_bound:(2 * ops);
            k = 4;
            key_len;
            seed = Prng.derive ~seed ~tag:(0xC4EC00 + (check_bits * 100) + trial);
          }
        in
        let ta = Iblt.create ~check_bits prm and tb = Iblt.create ~check_bits prm in
        let ma = Ref_model.create () and mb = Ref_model.create () in
        for _ = 1 to ops do
          let key = random_key rng ~key_len in
          match Prng.int_below rng 3 with
          | 0 ->
            Iblt.insert ta key;
            Ref_model.bump ma key 1
          | 1 ->
            Iblt.insert tb key;
            Ref_model.bump mb key 1
          | _ ->
            Iblt.insert ta key;
            Iblt.insert tb key;
            Ref_model.bump ma key 1;
            Ref_model.bump mb key 1
        done;
        let body = Iblt.body_bytes ta in
        Alcotest.(check int)
          "body length" (Iblt.body_length ~check_bits prm) (Bytes.length body);
        (match Iblt.of_body_bytes_opt ~check_bits prm body with
        | None -> Alcotest.fail "width-aware body roundtrip failed"
        | Some t' ->
          Alcotest.(check bool) "roundtrip bytes" true (Bytes.equal body (Iblt.body_bytes t')));
        match (Iblt.decode (Iblt.subtract ta tb), Ref_model.sides (Ref_model.subtract ma mb)) with
        | Ok { Iblt.positives; negatives }, (mpos, mneg) ->
          let str l = List.sort compare (List.map Bytes.to_string l) in
          Alcotest.(check (list string)) "positives" mpos (str positives);
          Alcotest.(check (list string)) "negatives" mneg (str negatives);
          incr agreements
        | Error `Peel_stuck, _ -> ()
        | exception Exit -> ()
      done)
    [ 8; 16; 32; 62 ];
  Alcotest.(check bool)
    (Printf.sprintf "compared %d/48" !agreements)
    true
    (!agreements >= 30)

(* The checked byte-wise reference path and the unchecked word-wide path
   must produce byte-identical tables on any op sequence; this is the
   guard the unsafe accessors live behind. *)
let test_safe_unsafe_identical () =
  let was_safe = Iblt.safe_cell_path () in
  Fun.protect
    ~finally:(fun () -> Iblt.set_safe_cell_path was_safe)
    (fun () ->
      let rng = Prng.create ~seed:(Prng.derive ~seed ~tag:0x5AFE) in
      List.iter
        (fun (key_len, check_bits) ->
          let prm : Iblt.params =
            { cells = 96; k = 4; key_len; seed = Prng.derive ~seed ~tag:(0x5AFE00 + key_len) }
          in
          let run safe =
            Iblt.set_safe_cell_path safe;
            let t = Iblt.create ~check_bits prm in
            let rng = Prng.create ~seed:(Prng.derive ~seed ~tag:0x5AFE1) in
            for _ = 1 to 300 do
              let x = Prng.int_below rng max_int in
              if key_len >= 8 then
                if Prng.bool rng then Iblt.insert_int t x else Iblt.delete_int t x
              else begin
                let key = random_key rng ~key_len in
                if Prng.bool rng then Iblt.insert t key else Iblt.delete t key
              end
            done;
            Iblt.add_all_ints t (Array.init 64 (fun i -> i * 977));
            Iblt.body_bytes t
          in
          ignore rng;
          let safe_body = run true and unsafe_body = run false in
          Alcotest.(check bool)
            (Printf.sprintf "key_len=%d check_bits=%d" key_len check_bits)
            true
            (Bytes.equal safe_body unsafe_body))
        [ (8, 62); (8, 16); (12, 62); (17, 32); (20, 8) ])

(* Batched inserts/deletes must be bit-identical to the serial loop across
   the batch threshold, key widths and checksum widths. *)
let test_batch_matches_serial () =
  List.iter
    (fun (cells, k, key_len, check_bits) ->
      List.iter
        (fun n ->
          let prm : Iblt.params =
            { cells; k; key_len; seed = Prng.derive ~seed ~tag:(0xBA7C + cells + n) }
          in
          let xs = Array.init n (fun i -> (i * 0x9E3779B1) land max_int) in
          let a = Iblt.create ~check_bits prm and b = Iblt.create ~check_bits prm in
          Array.iter (Iblt.insert_int a) xs;
          Iblt.add_all_ints b xs;
          Alcotest.(check bool)
            (Printf.sprintf "ints cells=%d kl=%d cb=%d n=%d" cells key_len check_bits n)
            true
            (Bytes.equal (Iblt.body_bytes a) (Iblt.body_bytes b));
          let keys =
            Array.init n (fun i ->
                let key = Bytes.make key_len '\000' in
                Buf.set_int_le key 0 xs.(i);
                if key_len > 8 then Bytes.set key (key_len - 1) (Char.chr (i land 0xFF));
                key)
          in
          let c = Iblt.create ~check_bits prm and d = Iblt.create ~check_bits prm in
          Array.iter (Iblt.insert c) keys;
          Iblt.add_all d keys;
          Alcotest.(check bool)
            (Printf.sprintf "bytes cells=%d kl=%d cb=%d n=%d" cells key_len check_bits n)
            true
            (Bytes.equal (Iblt.body_bytes c) (Iblt.body_bytes d));
          Iblt.delete_all d keys;
          Alcotest.(check bool) "delete_all empties" true (Iblt.is_empty d))
        [ 5; 33; 600 ])
    [ (128, 4, 8, 62); (1024, 3, 12, 62); (512, 4, 8, 16); (300, 5, 20, 32) ]

(* A [delete_int] of a never-inserted key followed by the matching
   [insert_int] must restore a byte-identical buffer at every checksum
   width on both cell paths — the server's incremental maintenance relies
   on exact cancellation when a removal lands before the insert it
   reverses. Count is a two's-complement i32 add and key/checksum are XOR,
   so any sign asymmetry (extension on the -1 count, checksum truncation
   differing between paths) shows up as a byte diff here. *)
let test_delete_then_insert_restores_bytes () =
  let was_safe = Iblt.safe_cell_path () in
  Fun.protect
    ~finally:(fun () -> Iblt.set_safe_cell_path was_safe)
    (fun () ->
      List.iter
        (fun safe ->
          Iblt.set_safe_cell_path safe;
          List.iter
            (fun check_bits ->
              List.iter
                (fun key_len ->
                  let prm : Iblt.params =
                    {
                      cells = 64;
                      k = 4;
                      key_len;
                      seed = Prng.derive ~seed ~tag:(0xD1F0 + check_bits + key_len);
                    }
                  in
                  let t = Iblt.create ~check_bits prm in
                  List.iter (Iblt.insert_int t) [ 3; 1_000_003; max_int ];
                  let before = Iblt.body_bytes t in
                  let rng = Prng.create ~seed:(Prng.derive ~seed ~tag:0xD1F1) in
                  for _ = 1 to 64 do
                    let x = Prng.int_below rng max_int in
                    Iblt.delete_int t x;
                    Iblt.insert_int t x
                  done;
                  for i = 1 to 16 do
                    let key = Bytes.make key_len '\000' in
                    Buf.set_int_le key 0 ((i * 0x9E3779B1) land max_int);
                    Iblt.delete t key;
                    Iblt.insert t key
                  done;
                  Alcotest.(check bool)
                    (Printf.sprintf "safe=%b check_bits=%d key_len=%d" safe check_bits key_len)
                    true
                    (Bytes.equal before (Iblt.body_bytes t)))
                [ 8; 12 ])
            [ 8; 16; 32; 62 ])
        [ true; false ])

(* A copy must share no mutable state with the original: mutating either
   side afterwards cannot leak into the other. *)
let test_copy_does_not_alias () =
  let prm = params ~cells:64 () in
  let t = Iblt.create prm in
  List.iter (Iblt.insert_int t) [ 1; 2; 3 ];
  let before = Iblt.body_bytes t in
  let c = Iblt.copy t in
  Iblt.insert_int c 99;
  Iblt.insert c (int_key 123456);
  Alcotest.(check bool) "original untouched" true (Bytes.equal before (Iblt.body_bytes t));
  Iblt.insert_int t 7;
  Iblt.delete_int c 99;
  Iblt.delete c (int_key 123456);
  Alcotest.(check bool) "copy untouched by original" true
    (Bytes.equal before (Iblt.body_bytes c));
  match Iblt.decode_ints c with
  | Ok (pos, neg) ->
    Alcotest.(check (list int)) "copy decodes original content" [ 1; 2; 3 ] (List.sort compare pos);
    Alcotest.(check (list int)) "no negatives" [] neg
  | Error `Peel_stuck -> Alcotest.fail "copy failed to decode"

(* The integer insert/delete path is advertised allocation-free; a nonzero
   minor-heap delta here is a regression even when it is too small to show
   up in timings. *)
let test_insert_int_zero_alloc () =
  let was_safe = Iblt.safe_cell_path () in
  Fun.protect
    ~finally:(fun () -> Iblt.set_safe_cell_path was_safe)
    (fun () ->
      List.iter
        (fun safe ->
          Iblt.set_safe_cell_path safe;
          let t = Iblt.create (params ~cells:256 ()) in
          (* Warm up so any one-time allocation is off the books. *)
          for i = 1 to 64 do
            Iblt.insert_int t i;
            Iblt.delete_int t i
          done;
          let w0 = Gc.minor_words () in
          for i = 1 to 1000 do
            Iblt.insert_int t (i * 7919);
            Iblt.delete_int t (i * 7919)
          done;
          let dw = Gc.minor_words () -. w0 in
          Alcotest.(check (float 0.0))
            (Printf.sprintf "safe=%b minor words" safe)
            0.0 dw)
        [ true; false ])

(* The child hashes behind every nested encoding, fingerprint and guard
   are advertised allocation-free too: a 4 KiB byte key (3078 minor words
   when each word's mix boxed its [int64]) and a 24-element child hashed
   in place (181 words when it went through [Iset.canonical_bytes]). *)
let test_child_hashing_zero_alloc () =
  let f = Ssr_util.Hashing.make ~seed ~tag:0x4B in
  let key = Bytes.init 4096 (fun i -> Char.chr (i land 0xFF)) in
  let child = Iset.of_list (List.init 24 (fun i -> (i * 1_000_003) + 7)) in
  let words f =
    ignore (Sys.opaque_identity (f ()));
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. w0
  in
  Alcotest.(check (float 0.0)) "hash_bytes, 4 KiB key" 0.0
    (words (fun () -> Ssr_util.Hashing.hash_bytes f key));
  Alcotest.(check (float 0.0)) "Iset.digest, 24 elements" 0.0 (words (fun () -> Iset.digest f child));
  let lanes = [| 0; 0 |] in
  Alcotest.(check (float 0.0)) "hash_bytes_into, 4 KiB key" 0.0
    (words (fun () -> Ssr_util.Hashing.hash_bytes_into f key lanes))

(* Residual serialization at a narrow width roundtrips through the
   width-aware parser back to the same table bytes. *)
let test_residual_narrow_width_roundtrip () =
  let prm : Iblt.params = { cells = 12; k = 4; key_len = 8; seed = 0x5EED0004L } in
  let t = Iblt.create ~check_bits:16 prm in
  for x = 1 to 40 do
    Iblt.insert_int t (x * 104729)
  done;
  match Iblt.decode_partial t with
  | `Decoded _ -> Alcotest.fail "overloaded table unexpectedly decoded"
  | `Salvaged (_, r) ->
    let wire = Iblt.residual_bytes r in
    (match Iblt.residual_of_bytes_opt ~check_bits:16 prm wire with
    | None -> Alcotest.fail "residual parse failed"
    | Some r' ->
      Alcotest.(check bool) "same table" true
        (Bytes.equal
           (Iblt.body_bytes (Iblt.residual_to_table r))
           (Iblt.body_bytes (Iblt.residual_to_table r')));
      Alcotest.(check bool) "canonical bytes" true
        (Bytes.equal wire (Iblt.residual_bytes r')))

(* ---------- Rateless coded-cell stream ---------- *)

module Rateless = Ssr_sketch.Rateless

let rl_seed = 0x7A7E5EEDL

let test_rateless_slicing_stable () =
  let src = Rateless.source_of_ints ~seed:rl_seed (Array.init 500 (fun i -> (i * 7) + 1)) in
  let cb = Rateless.source_cell_bytes src in
  let whole = Rateless.cells src ~lo:0 ~hi:96 in
  Alcotest.(check int) "window width" (96 * cb) (Bytes.length whole);
  let buf = Buffer.create (96 * cb) in
  List.iter
    (fun (lo, hi) -> Buffer.add_bytes buf (Rateless.cells src ~lo ~hi))
    [ (0, 1); (1, 17); (17, 40); (40, 96) ];
  Alcotest.(check bool) "re-slicing stable" true
    (Bytes.equal whole (Buffer.to_bytes buf));
  (* Cell 0 has degree 1: it sums the whole pool. *)
  Alcotest.(check int32) "cell 0 counts everything" 500l (Bytes.get_int32_le whole 0);
  for e = 0 to 499 do
    Alcotest.(check bool) "member agrees" true (Rateless.member src ~key_index:e 0)
  done

(* Drive a decode: Alice = [0, n), Bob = [d, n + d), windows of [w] cells,
   [drop] selects lost windows by window number. Returns the sorted decoded
   difference and the prefix length consumed. *)
let rl_drive ?(drop = fun _ -> false) ?(w = 16) ~n ~d () =
  let alice = Array.init n (fun i -> i) in
  let bob = Array.init n (fun i -> i + d) in
  let src = Rateless.source_of_ints ~seed:rl_seed alice in
  let dec = Rateless.decoder_of_ints ~seed:rl_seed bob in
  let rec go lo =
    if lo > 8192 then Alcotest.fail "rateless: no decode within 8192 cells"
    else begin
      if not (drop (lo / w)) then
        ignore (Rateless.absorb dec ~lo (Rateless.cells src ~lo ~hi:(lo + w)));
      match Rateless.decoded_ints dec with
      | Some (pos, neg) ->
        (List.sort compare pos, List.sort compare neg, Rateless.next_index dec)
      | None -> go (lo + w)
    end
  in
  go 0

let test_rateless_decodes_difference () =
  List.iter
    (fun (n, d) ->
      let pos, neg, _ = rl_drive ~n ~d () in
      Alcotest.(check (list int)) "alice-only" (List.init d (fun i -> i)) pos;
      Alcotest.(check (list int)) "bob-only" (List.init d (fun i -> n + i)) neg)
    [ (200, 1); (200, 8); (1000, 40); (64, 64) ]

let test_rateless_equal_pools () =
  let keys = Array.init 300 (fun i -> i * 3 ) in
  let src = Rateless.source_of_ints ~seed:rl_seed keys in
  let dec = Rateless.decoder_of_ints ~seed:rl_seed keys in
  ignore (Rateless.absorb dec ~lo:0 (Rateless.cells src ~lo:0 ~hi:1));
  (match Rateless.decoded_ints dec with
  | Some ([], []) -> ()
  | _ -> Alcotest.fail "equal pools should decode empty from one cell");
  Alcotest.(check int) "one cell absorbed" 1 (Rateless.absorbed dec)

let test_rateless_monotone_in_prefix () =
  let n = 400 and d = 24 in
  let alice = Array.init n (fun i -> i) in
  let bob = Array.init n (fun i -> i + d) in
  let src = Rateless.source_of_ints ~seed:rl_seed alice in
  (* Find the minimal decodable prefix, one cell at a time. *)
  let dec = Rateless.decoder_of_ints ~seed:rl_seed bob in
  let norm (pos, neg) = (List.sort compare pos, List.sort compare neg) in
  let rec find lo =
    if lo > 8192 then Alcotest.fail "no decode"
    else begin
      ignore (Rateless.absorb dec ~lo (Rateless.cells src ~lo ~hi:(lo + 1)));
      match Rateless.decoded_ints dec with
      | Some diff -> (lo + 1, norm diff)
      | None -> find (lo + 1)
    end
  in
  let m, diff = find 0 in
  Alcotest.(check bool) "needs more than one cell" true (m > 1);
  (* Every longer prefix decodes, to the same difference, under any
     window chunking. *)
  List.iter
    (fun (extra, w) ->
      let dec = Rateless.decoder_of_ints ~seed:rl_seed bob in
      let rec feed lo =
        if lo < m + extra then begin
          let hi = min (m + extra) (lo + w) in
          ignore (Rateless.absorb dec ~lo (Rateless.cells src ~lo ~hi));
          feed hi
        end
      in
      feed 0;
      match Rateless.decoded_ints dec with
      | Some diff' ->
        Alcotest.(check bool)
          (Printf.sprintf "superset (+%d cells, w=%d) decodes identically" extra w)
          true (diff = norm diff')
      | None -> Alcotest.fail "superset of a decodable prefix must decode")
    [ (0, 1); (0, 7); (1, 3); (16, 5); (128, 32) ];
  (* And no shorter prefix hands back a wrong difference. *)
  let dec = Rateless.decoder_of_ints ~seed:rl_seed bob in
  for lo = 0 to m - 2 do
    ignore (Rateless.absorb dec ~lo (Rateless.cells src ~lo ~hi:(lo + 1)));
    match Rateless.decoded_ints dec with
    | None -> ()
    | Some diff' ->
      Alcotest.(check bool) "early candidate can only be the true difference" true
        (norm diff' = diff)
  done

let test_rateless_tolerates_loss () =
  (* Drop every third window: decoding still completes (later cells carry
     fresh parity; nothing is retransmitted) to the exact difference. *)
  let n = 600 and d = 32 in
  let pos, neg, consumed = rl_drive ~n ~d ~drop:(fun w -> w mod 3 = 2) () in
  Alcotest.(check (list int)) "alice-only under loss" (List.init d (fun i -> i)) pos;
  Alcotest.(check (list int)) "bob-only under loss" (List.init d (fun i -> n + i)) neg;
  let _, _, clean = rl_drive ~n ~d () in
  Alcotest.(check bool) "loss costs a longer stream, not failure" true (consumed >= clean)

let test_rateless_duplicate_windows_harmless () =
  let n = 250 and d = 10 in
  let alice = Array.init n (fun i -> i) in
  let bob = Array.init n (fun i -> i + d) in
  let src = Rateless.source_of_ints ~seed:rl_seed alice in
  let dec = Rateless.decoder_of_ints ~seed:rl_seed bob in
  let w0 = Rateless.cells src ~lo:0 ~hi:8 in
  Alcotest.(check int) "first absorb fresh" 8 (Rateless.absorb dec ~lo:0 w0);
  Alcotest.(check int) "duplicate absorb is a no-op" 0 (Rateless.absorb dec ~lo:0 w0);
  (* Overlapping window: only the unseen tail counts. *)
  Alcotest.(check int) "overlap absorbs the tail" 4
    (Rateless.absorb dec ~lo:4 (Rateless.cells src ~lo:4 ~hi:12));
  Alcotest.(check int) "next_index tracks the high-water mark" 12 (Rateless.next_index dec);
  Alcotest.(check bool) "misaligned window rejected" true
    (try
       ignore (Rateless.absorb dec ~lo:12 (Bytes.create 5));
       false
     with Invalid_argument _ -> true)

let qcheck_tests = List.map QCheck_alcotest.to_alcotest [ prop_subtract_decode ]


let () =
  Alcotest.run "ssr_sketch"
    [
      ( "iblt",
        [
          Alcotest.test_case "empty decodes" `Quick test_empty_decodes;
          Alcotest.test_case "insert/decode" `Quick test_insert_decode;
          Alcotest.test_case "insert+delete cancels" `Quick test_insert_delete_cancels;
          Alcotest.test_case "negative counts" `Quick test_negative_counts;
          Alcotest.test_case "subtract difference" `Quick test_subtract_gives_difference;
          Alcotest.test_case "overload detected" `Quick test_overload_detected;
          Alcotest.test_case "duplicate keys detected" `Quick test_duplicate_key_detected;
          Alcotest.test_case "serialization roundtrip" `Quick test_serialization_roundtrip;
          Alcotest.test_case "wide keys" `Quick test_wide_keys;
          Alcotest.test_case "param mismatch rejected" `Quick test_param_mismatch_rejected;
          Alcotest.test_case "cells rounded to k" `Quick test_cells_rounded_to_k;
          Alcotest.test_case "decode success rate" `Slow test_decode_success_rate;
          Alcotest.test_case "differential vs reference model" `Quick test_differential_vs_model;
          Alcotest.test_case "differential int fast path" `Quick test_differential_int_fast_path;
          Alcotest.test_case "wire golden bytes" `Quick test_wire_golden;
          Alcotest.test_case "checksum widths" `Quick test_checksum_widths;
          Alcotest.test_case "safe = unsafe cell path" `Quick test_safe_unsafe_identical;
          Alcotest.test_case "batch = serial" `Quick test_batch_matches_serial;
          Alcotest.test_case "delete-then-insert restores bytes" `Quick
            test_delete_then_insert_restores_bytes;
          Alcotest.test_case "copy does not alias" `Quick test_copy_does_not_alias;
          Alcotest.test_case "insert_int allocates nothing" `Quick test_insert_int_zero_alloc;
          Alcotest.test_case "child hashing allocates nothing" `Quick test_child_hashing_zero_alloc;
          Alcotest.test_case "residual narrow width" `Quick test_residual_narrow_width_roundtrip;
        ] );
      ( "failure-injection",
        [
          Alcotest.test_case "bad body length" `Quick test_iblt_bad_body_length;
          Alcotest.test_case "bad key length" `Quick test_iblt_bad_key_length;
          Alcotest.test_case "corruption never silent" `Quick test_iblt_corruption_never_silent;
          Alcotest.test_case "subtract symmetry" `Quick test_iblt_double_subtract_is_negation;
          Alcotest.test_case "l0 negative element" `Quick test_l0_negative_element_rejected;
          Alcotest.test_case "l0 merge mismatch" `Quick test_l0_merge_mismatch_rejected;
          Alcotest.test_case "l0 of_bytes length" `Quick test_l0_of_bytes_length_checked;
          Alcotest.test_case "strata shape mismatch" `Quick test_strata_shape_mismatch;
          Alcotest.test_case "strata bad params" `Quick test_strata_bad_params;
        ] );
      ( "median-estimator",
        [
          Alcotest.test_case "basics" `Quick test_l0_median_basics;
          Alcotest.test_case "merge" `Quick test_l0_median_merge;
          Alcotest.test_case "amplification" `Slow test_l0_median_amplifies;
        ] );
      ( "l0-estimator",
        [
          Alcotest.test_case "exact cancellation" `Quick test_l0_exact_cancellation;
          Alcotest.test_case "small sparse exact" `Quick test_l0_small_exact;
          Alcotest.test_case "merge = single stream" `Quick test_l0_merge_matches_single;
          Alcotest.test_case "constant factor" `Slow test_l0_constant_factor;
          Alcotest.test_case "serialization" `Quick test_l0_serialization;
        ] );
      ( "strata-estimator",
        [
          Alcotest.test_case "exact small" `Quick test_strata_exact_small;
          Alcotest.test_case "constant factor" `Slow test_strata_constant_factor;
          Alcotest.test_case "l0 smaller than strata" `Quick test_l0_smaller_than_strata;
        ] );
      ( "salvage",
        [
          Alcotest.test_case "decode_partial agrees with decode" `Quick
            test_decode_partial_agrees_with_decode;
          Alcotest.test_case "prefix + residual = difference" `Quick
            test_salvage_composes_to_full_difference;
          Alcotest.test_case "residual wire roundtrip" `Quick test_residual_wire_roundtrip;
          Alcotest.test_case "stash absorb cascades" `Quick test_stash_absorb_cancels_and_cascades;
          Alcotest.test_case "adversarial family rescued" `Quick
            test_adversarial_family_rescued_by_salvage;
        ] );
      ( "rateless",
        [
          Alcotest.test_case "slicing stable" `Quick test_rateless_slicing_stable;
          Alcotest.test_case "decodes the difference" `Quick test_rateless_decodes_difference;
          Alcotest.test_case "equal pools decode empty" `Quick test_rateless_equal_pools;
          Alcotest.test_case "monotone in prefix" `Quick test_rateless_monotone_in_prefix;
          Alcotest.test_case "tolerates window loss" `Quick test_rateless_tolerates_loss;
          Alcotest.test_case "duplicate windows harmless" `Quick
            test_rateless_duplicate_windows_harmless;
        ] );
      ("properties", qcheck_tests);
    ]
