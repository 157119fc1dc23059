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

let int_key x =
  let b = Bytes.make 8 '\000' in
  Buf.set_int_le b 0 x;
  b

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
  Alcotest.(check string) "wide keys" "01000000050000000000000000000000052251f24ecd43ff08020000002b23000000000000000000002b771bcb55e4167b21030000002e23000000000000000000002e554a391b295584290000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000030000002e23000000000000000000002e554a391b2955842900000000000000000000000000000000000000000000000000030000002e23000000000000000000002e554a391b29558429" (hex_of_bytes (Iblt.body_bytes t2))

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

(* Byte-wise reference for the packed cell store: checked [Bytes]
   operations with every numeric field explicitly little-endian, so it is
   correct on any host. Positions and checksums are recomputed from the
   public hashing primitives under the table's hash tag, and integer keys
   are encoded to bytes first, so the table's word-wide and integer fast
   paths must match it byte for byte. *)
module Ref_cells = struct
  module Hashing = Ssr_util.Hashing

  type t = {
    prm : Iblt.params;
    check_bytes : int;
    check_mask : int;
    cell_bytes : int;
    buf : Bytes.t;
    fn : Hashing.fn;
  }

  let create ?(check_bits = 62) (prm : Iblt.params) =
    let check_bytes = match check_bits with 8 -> 1 | 16 -> 2 | 32 -> 4 | _ -> 8 in
    let cells = (max prm.k prm.cells + prm.k - 1) / prm.k * prm.k in
    let cell_bytes = 4 + prm.key_len + check_bytes in
    {
      prm = { prm with cells };
      check_bytes;
      check_mask = (1 lsl check_bits) - 1;
      cell_bytes;
      buf = Bytes.make (cells * cell_bytes) '\000';
      fn = Hashing.make ~seed:prm.seed ~tag:0x1B17;
    }

  let poke t c key cs sign =
    let base = c * t.cell_bytes in
    let kl = t.prm.key_len in
    Bytes.set_int32_le t.buf base (Int32.add (Bytes.get_int32_le t.buf base) (Int32.of_int sign));
    for i = 0 to kl - 1 do
      Bytes.set t.buf (base + 4 + i)
        (Char.chr (Char.code (Bytes.get t.buf (base + 4 + i)) lxor Char.code (Bytes.get key i)))
    done;
    let off = base + 4 + kl in
    match t.check_bytes with
    | 1 -> Bytes.set_uint8 t.buf off (Bytes.get_uint8 t.buf off lxor cs)
    | 2 -> Bytes.set_uint16_le t.buf off (Bytes.get_uint16_le t.buf off lxor cs)
    | 4 ->
      Bytes.set_int32_le t.buf off (Int32.logxor (Bytes.get_int32_le t.buf off) (Int32.of_int cs))
    | _ ->
      Bytes.set_int64_le t.buf off (Int64.logxor (Bytes.get_int64_le t.buf off) (Int64.of_int cs))

  let apply t key sign =
    let h1, h2 = Hashing.hash_bytes_pair t.fn key in
    let cs = Hashing.mix_pair h1 h2 land t.check_mask in
    let per_part = t.prm.cells / t.prm.k in
    let s = ref h1 in
    for i = 0 to t.prm.k - 1 do
      s := Prng.mix_int (!s + h2);
      poke t ((i * per_part) + Hashing.reduce_fast !s per_part) key cs sign
    done

  let key_of_int t x =
    let key = Bytes.make t.prm.key_len '\000' in
    Bytes.set_int64_le key 0 (Int64.of_int x);
    key

  let insert t key = apply t key 1
  let delete t key = apply t key (-1)
  let insert_int t x = apply t (key_of_int t x) 1
  let delete_int t x = apply t (key_of_int t x) (-1)
  let body t = Bytes.copy t.buf
end

(* Keys shaped like an iblt-of-iblts outer key at d = 64: 2,807 bytes,
   i.e. 140 child cells of 20 bytes and a 7-byte child hash, mostly zero.
   Each key but the first has 1 to 8 nonzero child cells (not aligned to
   8-byte words) and a nonzero hash; the first key is all zero. A cell
   update XORs only a key's nonzero words, so these catch a word missing
   from, or wrongly placed in, that list. *)
let wide_key_len = 2807

let wide_keys rng n =
  Array.init n (fun i ->
      let key = Bytes.make wide_key_len '\000' in
      if i > 0 then begin
        for _ = 0 to Prng.int_below rng 8 do
          let cell = Prng.int_below rng 140 in
          for j = 0 to 19 do
            Bytes.set key ((cell * 20) + j) (Char.chr (1 + Prng.int_below rng 255))
          done
        done;
        for j = 2800 to wide_key_len - 1 do
          Bytes.set key j (Char.chr (1 + Prng.int_below rng 255))
        done
      end;
      key)

(* The table's word-wide cell updates must leave exactly the bytes of the
   byte-wise reference on any op sequence: this is the guard the
   unchecked accessors live behind. The wide mostly-zero shape runs
   single inserts and deletes against the reference, then peels a table
   built from distinct keys and must give every key back. *)
let test_safe_unsafe_identical () =
  List.iter
    (fun (key_len, check_bits) ->
      let prm : Iblt.params =
        { cells = 96; k = 4; key_len; seed = Prng.derive ~seed ~tag:(0x5AFE00 + key_len) }
      in
      let t = Iblt.create ~check_bits prm and r = Ref_cells.create ~check_bits prm in
      let rng = Prng.create ~seed:(Prng.derive ~seed ~tag:0x5AFE1) in
      for _ = 1 to 300 do
        let x = Prng.int_below rng max_int in
        if key_len >= 8 then
          if Prng.bool rng then (Iblt.insert_int t x; Ref_cells.insert_int r x)
          else (Iblt.delete_int t x; Ref_cells.delete_int r x)
        else begin
          let key = random_key rng ~key_len in
          if Prng.bool rng then (Iblt.insert t key; Ref_cells.insert r key)
          else (Iblt.delete t key; Ref_cells.delete r key)
        end
      done;
      let xs = Array.init 64 (fun i -> i * 977) in
      if key_len >= 8 then begin
        Iblt.add_all_ints t xs;
        Array.iter (Ref_cells.insert_int r) xs
      end
      else begin
        let keys = Array.map (fun x -> Bytes.sub (int_key x) 0 key_len) xs in
        Iblt.add_all t keys;
        Array.iter (Ref_cells.insert r) keys
      end;
      Alcotest.(check bool)
        (Printf.sprintf "key_len=%d check_bits=%d" key_len check_bits)
        true
        (Bytes.equal (Ref_cells.body r) (Iblt.body_bytes t)))
    [ (5, 62); (8, 62); (8, 16); (12, 62); (16, 62); (17, 32); (20, 8) ];
  List.iter
    (fun check_bits ->
      let label what = Printf.sprintf "wide keys, check_bits=%d: %s" check_bits what in
      let rng = Prng.create ~seed:(Prng.derive ~seed ~tag:(0x5AFE2 + check_bits)) in
      let pool = wide_keys rng 24 in
      let prm : Iblt.params =
        { cells = 96; k = 4; key_len = wide_key_len; seed = Prng.derive ~seed ~tag:0x5AFE3 }
      in
      let t = Iblt.create ~check_bits prm and r = Ref_cells.create ~check_bits prm in
      for _ = 1 to 300 do
        let key = pool.(Prng.int_below rng 24) in
        if Prng.bool rng then (Iblt.insert t key; Ref_cells.insert r key)
        else (Iblt.delete t key; Ref_cells.delete r key)
      done;
      Alcotest.(check bool) (label "inserts and deletes") true
        (Bytes.equal (Ref_cells.body r) (Iblt.body_bytes t));
      let prm = { prm with cells = Iblt.recommended_cells ~k:4 ~diff_bound:32 } in
      let t = Iblt.create ~check_bits prm and r = Ref_cells.create ~check_bits prm in
      let pos = Array.sub pool 0 12 and neg = Array.sub pool 12 4 in
      Array.iter (fun key -> Iblt.insert t key; Ref_cells.insert r key) pos;
      Array.iter (fun key -> Iblt.delete t key; Ref_cells.delete r key) neg;
      Alcotest.(check bool) (label "before the peel") true
        (Bytes.equal (Ref_cells.body r) (Iblt.body_bytes t));
      let sorted keys = List.sort Bytes.compare keys in
      match Iblt.decode t with
      | Error `Peel_stuck -> Alcotest.fail (label "peel stuck")
      | Ok { positives; negatives } ->
        Alcotest.(check bool) (label "peeled positives") true
          (List.equal Bytes.equal (sorted positives) (sorted (Array.to_list pos)));
        Alcotest.(check bool) (label "peeled negatives") true
          (List.equal Bytes.equal (sorted negatives) (sorted (Array.to_list neg))))
    [ 62; 16 ]

(* Batched inserts/deletes must leave the reference's bytes across key
   widths, checksum widths and batch sizes: batches shorter than one
   group of four, and wide mostly-zero keys hashed four at a time. *)
let test_batch_matches_serial () =
  List.iter
    (fun (cells, k, key_len, check_bits) ->
      List.iter
        (fun n ->
          let prm : Iblt.params =
            { cells; k; key_len; seed = Prng.derive ~seed ~tag:(0xBA7C + cells + n) }
          in
          let same label r t =
            Alcotest.(check bool)
              (Printf.sprintf "%s cells=%d kl=%d cb=%d n=%d" label cells key_len check_bits n)
              true
              (Bytes.equal (Ref_cells.body r) (Iblt.body_bytes t))
          in
          let xs = Array.init n (fun i -> (i * 0x9E3779B1) land max_int) in
          let a = Ref_cells.create ~check_bits prm and b = Iblt.create ~check_bits prm in
          Array.iter (Ref_cells.insert_int a) xs;
          Iblt.add_all_ints b xs;
          same "ints" a b;
          let keys =
            Array.init n (fun i ->
                let key = Bytes.make key_len '\000' in
                Buf.set_int_le key 0 xs.(i);
                if key_len > 8 then Bytes.set key (key_len - 1) (Char.chr (i land 0xFF));
                key)
          in
          let c = Ref_cells.create ~check_bits prm and d = Iblt.create ~check_bits prm in
          Array.iter (Ref_cells.insert c) keys;
          Iblt.add_all d keys;
          same "bytes" c d;
          let half parity =
            Array.of_list (List.filteri (fun i _ -> i land 1 = parity) (Array.to_list keys))
          in
          Array.iter (Ref_cells.delete c) (half 1);
          Iblt.delete_all d (half 1);
          same "delete_all" c d;
          Iblt.delete_all d (half 0);
          Alcotest.(check bool) "delete_all empties" true (Iblt.is_empty d))
        [ 3; 5; 33; 600 ])
    [ (128, 4, 8, 62); (1024, 3, 12, 62); (512, 4, 8, 16); (300, 5, 20, 32) ];
  List.iter
    (fun (n, check_bits) ->
      let prm : Iblt.params =
        { cells = 268; k = 4; key_len = wide_key_len; seed = Prng.derive ~seed ~tag:(0xBA7D + n) }
      in
      let same label r t =
        Alcotest.(check bool)
          (Printf.sprintf "wide %s cb=%d n=%d" label check_bits n)
          true
          (Bytes.equal (Ref_cells.body r) (Iblt.body_bytes t))
      in
      let keys = wide_keys (Prng.create ~seed:(Prng.derive ~seed ~tag:(0xBA7E + n))) n in
      let r = Ref_cells.create ~check_bits prm and t = Iblt.create ~check_bits prm in
      Array.iter (Ref_cells.insert r) keys;
      Iblt.add_all t keys;
      same "add_all" r t;
      let odd = Array.of_list (List.filteri (fun i _ -> i land 1 = 1) (Array.to_list keys)) in
      Array.iter (Ref_cells.delete r) odd;
      Iblt.delete_all t odd;
      same "delete_all" r t)
    [ (3, 62); (9, 62); (33, 62); (33, 16) ]

(* A [delete_int] of a never-inserted key followed by the matching
   [insert_int] must restore a byte-identical buffer at every checksum
   width — the server's incremental maintenance relies on exact
   cancellation when a removal lands before the insert it reverses. Count
   is a two's-complement i32 add and key/checksum are XOR, so any sign
   asymmetry (extension on the -1 count, checksum truncation) shows up as
   a byte diff here. *)
let test_delete_then_insert_restores_bytes () =
  List.iter
    (fun check_bits ->
      List.iter
        (fun key_len ->
          let prm : Iblt.params =
            { cells = 64; k = 4; key_len; seed = Prng.derive ~seed ~tag:(0xD1F0 + check_bits + key_len) }
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
            (Printf.sprintf "check_bits=%d key_len=%d" check_bits key_len)
            true
            (Bytes.equal before (Iblt.body_bytes t)))
        [ 8; 12 ])
    [ 8; 16; 32; 62 ]

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
  Alcotest.(check (float 0.0)) "minor words" 0.0 dw

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
    (words (fun () -> Ssr_util.Hashing.hash_bytes_into f key lanes));
  let k = Array.init 4 (fun i -> Bytes.init 4095 (fun j -> Char.chr ((i + (j * 7)) land 0xFF))) in
  let lanes4 = Array.make 8 0 in
  Alcotest.(check (float 0.0)) "hash_bytes4_into, four 4095-byte keys" 0.0
    (words (fun () -> Ssr_util.Hashing.hash_bytes4_into f k.(0) k.(1) k.(2) k.(3) lanes4))

(* [add_all] hashes its keys four at a time and XORs only each key's
   nonzero words, through per-table scratch: a group of four
   iblt-of-iblts-shaped keys, inserted and deleted, allocates nothing. *)
let test_add_all_zero_alloc () =
  let keys = wide_keys (Prng.create ~seed) 4 in
  let t = Iblt.create (params ~cells:268 ~key_len:wide_key_len ()) in
  let op () =
    Iblt.add_all t keys;
    Iblt.delete_all t keys
  in
  op ();
  let w0 = Gc.minor_words () in
  op ();
  Alcotest.(check (float 0.0)) "minor words" 0.0 (Gc.minor_words () -. w0);
  Alcotest.(check bool) "table empty again" true (Iblt.is_empty t)

(* The nested protocols fold each child's encoding into the outer table
   through four reused key buffers and one child table, four keys per
   [Iblt.add_all]. After a warm-up pass, folding 1,000 children of up to
   24 elements into an iblt-of-iblts-shaped outer table (140-cell child
   tables, 2,807-byte keys) allocates nothing, on either heap: a fresh key
   per child costs about 1,057 major words, and at that rate the major
   collector runs about once a request. *)
let test_encoding_fold_alloc () =
  let module Encoding = Ssr_core.Encoding in
  let cfg : Encoding.config = { child_cells = 140; child_k = 4; hash_bits = 52; seed } in
  let rng = Prng.create ~seed in
  let kids =
    Array.init 1000 (fun i -> Iset.random_subset rng ~universe:(1 lsl 30) ~size:(1 + (i mod 24)))
  in
  let outer =
    Iblt.create
      (params ~cells:(Iblt.recommended_cells ~k:4 ~diff_bound:128) ~key_len:(Encoding.key_length cfg) ())
  in
  Alcotest.(check int) "key width" 2807 (Encoding.key_length cfg);
  let fold_kids = Encoding.fold cfg in
  let fold () = fold_kids outer kids in
  fold ();
  Gc.minor ();
  let major () = (Gc.quick_stat ()).Gc.major_words in
  let major0 = major () in
  let minor0 = Gc.minor_words () in
  fold ();
  let minor1 = Gc.minor_words () in
  let major1 = major () in
  Alcotest.(check (float 0.0)) "minor words" 0.0 (minor1 -. minor0);
  Alcotest.(check (float 0.0)) "major words" 0.0 (major1 -. major0)

(* ---------- Rateless coded-cell stream ---------- *)

module Rateless = Ssr_sketch.Rateless

let rl_seed = 0x7A7E5EEDL

let test_rateless_slicing_stable () =
  let src = Rateless.source_of_ints ~seed:rl_seed (Array.init 500 (fun i -> (i * 7) + 1)) in
  let cb = Rateless.cell_bytes in
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

(* A source resumes each element's walk where the last window stopped:
   the doubling ramp [0,32), [32,96), ..., [2016,4064) walks exactly as
   many steps as one [0,4064) call (a walk restarted per window would
   take ~5x: sum of 1 + 2 ln hi against 1 + 2 ln 4064 per element), and
   the windows concatenate to that call's bytes. After the ramp, a window
   past a gap resumes and one below the frontier rewinds; both equal the
   same window from a fresh source. The digest pins the schedule itself:
   it was computed with the per-window walk that preceded the cursors. *)
let test_rateless_walk_resumes () =
  let module Metrics = Ssr_obs.Metrics in
  let keys = Array.init 5000 (fun i -> (i * 13) + 5) in
  let fresh () = Rateless.source_of_ints ~seed:rl_seed keys in
  let steps f =
    let before = Metrics.snapshot () in
    let r = f () in
    (r, Metrics.counter_value (Metrics.diff ~before ~after:(Metrics.snapshot ())) "rateless.walk_steps")
  in
  let one, one_steps = steps (fun () -> Rateless.cells (fresh ()) ~lo:0 ~hi:4064) in
  Alcotest.(check bool) "every element walks" true (one_steps > Array.length keys);
  let src = fresh () in
  let ramp, ramp_steps =
    steps (fun () ->
        List.map
          (fun (lo, hi) -> Rateless.cells src ~lo ~hi)
          [ (0, 32); (32, 96); (96, 224); (224, 480); (480, 992); (992, 2016); (2016, 4064) ])
  in
  Alcotest.(check int) "ramp walks as far as one call" one_steps ramp_steps;
  Alcotest.(check bool) "ramp concatenates to one call" true
    (Bytes.equal one (Bytes.concat Bytes.empty ramp));
  let later = [ (4100, 4164); (1000, 1100); (1500, 1600) ] in
  let resumed = List.map (fun (lo, hi) -> Rateless.cells src ~lo ~hi) later in
  List.iter2
    (fun (lo, hi) w ->
      Alcotest.(check bool)
        (Printf.sprintf "[%d,%d) equals a fresh source's" lo hi)
        true
        (Bytes.equal w (Rateless.cells (fresh ()) ~lo ~hi)))
    later resumed;
  Alcotest.(check string) "schedule digest" "7ff7fc25028cc1532c693973bc0bf915"
    (Digest.to_hex (Digest.bytes (Bytes.concat Bytes.empty (ramp @ resumed))))

(* The skip table against the float formula. For every member m up to
   63 (the table's rows and past them) and every k < 300 (its cells and
   past them), the least draw at which the next member is <= k is the
   integer quotient ceil((m+1)(m+2) 2^32 / ((k+1)(k+2))): the float formula
   must say so one draw either side, and [skip] must agree with it there
   and one draw past; then at both ends of every top-byte bucket of the
   draw, and at 10^6 random (m, draw) pairs. *)
let test_rateless_skip_table_exact () =
  let draws = 1 lsl 32 in
  let agree m r =
    if r >= 1 && r <= draws && Rateless.skip m r <> Rateless.skip_float m r then
      Alcotest.failf "skip %d %d = %d, float formula %d" m r (Rateless.skip m r)
        (Rateless.skip_float m r)
  in
  for m = -1 to 63 do
    for k = m + 1 to 299 do
      let p = (k + 1) * (k + 2) in
      let t = ((((m + 1) * (m + 2)) lsl 32) + p - 1) / p in
      if t >= 1 && Rateless.skip_float m t > k then Alcotest.failf "T(%d, %d) = %d too low" m k t;
      if t >= 2 && Rateless.skip_float m (t - 1) <= k then
        Alcotest.failf "T(%d, %d) = %d too high" m k t;
      List.iter (agree m) [ t - 1; t; t + 1 ]
    done;
    for b = 0 to 255 do
      agree m ((b lsl 24) + 1);
      agree m ((b + 1) lsl 24)
    done
  done;
  let rng = Prng.create ~seed:(Prng.derive ~seed ~tag:0x5C1B) in
  for _ = 1 to 1_000_000 do
    agree (Prng.int_below rng 97 - 1) (1 + Prng.int_below rng draws)
  done

(* A decoder resumes each peeled key's walk as its source resumes the
   pool's: absorbing a 2e4-key, d = 2048 stream as the doubling ramp
   [0,32) ... [2016,4064) walks the pool and the peeled keys exactly as
   many steps as absorbing [0,4064) at once, and decodes the same
   difference. A key re-walked from cell 0 on each absorb takes more. *)
let test_rateless_decoder_walks_resume () =
  let module Metrics = Ssr_obs.Metrics in
  let bob = Array.init 20_000 (fun i -> (i * 13) + 5) in
  let alice = Array.init 20_000 (fun i -> if i < 1024 then (i * 13) + 7 else bob.(i)) in
  let stream = Rateless.cells (Rateless.source_of_ints ~seed:rl_seed alice) ~lo:0 ~hi:4064 in
  let cb = Rateless.cell_bytes in
  let absorb windows =
    let dec = Rateless.decoder_of_ints ~seed:rl_seed bob in
    let before = Metrics.snapshot () in
    List.iter
      (fun (lo, hi) ->
        ignore (Rateless.absorb dec ~lo (Bytes.sub stream (lo * cb) ((hi - lo) * cb))))
      windows;
    let d = Metrics.diff ~before ~after:(Metrics.snapshot ()) in
    ( Metrics.counter_value d "rateless.walk_steps",
      Metrics.counter_value d "rateless.key_walk_steps",
      Option.map
        (fun (pos, neg) -> (List.sort compare pos, List.sort compare neg))
        (Rateless.decoded_ints dec) )
  in
  let pool, keys, decoded = absorb [ (0, 4064) ] in
  let pool', keys', decoded' =
    absorb [ (0, 32); (32, 96); (96, 224); (224, 480); (480, 992); (992, 2016); (2016, 4064) ]
  in
  (match decoded with
  | Some (pos, neg) ->
    Alcotest.(check (list int)) "alice-only" (Array.to_list (Array.sub alice 0 1024)) pos;
    Alcotest.(check (list int)) "bob-only" (Array.to_list (Array.sub bob 0 1024)) neg
  | None -> Alcotest.fail "one window did not decode");
  Alcotest.(check bool) "the ramp decodes the same" true (decoded = decoded');
  Alcotest.(check bool) "peeled keys walk" true (keys > 2048);
  Alcotest.(check int) "pool steps" pool pool';
  Alcotest.(check int) "key-walk steps" keys keys'

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

(* A family ground against the rateless schedule: every key's walk is
   cell 0 and nothing else below w, by [walk_int] and by a source's own
   [member]; the cells [0, w) of its difference peel nothing, and the
   stream past w still decodes it. *)
let test_rateless_ground_family_stalls () =
  let keys, w = Ssr_apps.Adversarial.rateless_colliding_ints ~seed:rl_seed ~count:8 () in
  Alcotest.(check bool) (Printf.sprintf "w = %d reaches past cell 1" w) true (w > 1);
  let src = Rateless.source_of_ints ~seed:rl_seed (Array.of_list keys) in
  List.iteri
    (fun e x ->
      Alcotest.(check (list int)) "walk below w" [ 0 ]
        (List.of_seq (Seq.take_while (fun i -> i < w) (Rateless.walk_int ~seed:rl_seed x)));
      for i = 0 to w - 1 do
        Alcotest.(check bool) "member agrees" (i = 0) (Rateless.member src ~key_index:e i)
      done)
    keys;
  let dec = Rateless.decoder_of_ints ~seed:rl_seed [||] in
  ignore (Rateless.absorb dec ~lo:0 (Rateless.cells src ~lo:0 ~hi:w));
  Alcotest.(check int) "nothing peels below w" 0 (Rateless.peeled dec);
  ignore (Rateless.absorb dec ~lo:w (Rateless.cells src ~lo:w ~hi:(64 * w)));
  match Rateless.decoded_ints dec with
  | Some (pos, []) ->
    Alcotest.(check (list int)) "decodes past w" (List.sort compare keys) (List.sort compare pos)
  | _ -> Alcotest.fail "the stream past w did not decode the family"

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
          Alcotest.test_case "encoding fold allocates nothing" `Quick test_encoding_fold_alloc;
          Alcotest.test_case "add_all allocates nothing" `Quick test_add_all_zero_alloc;
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
      ( "rateless",
        [
          Alcotest.test_case "slicing stable" `Quick test_rateless_slicing_stable;
          Alcotest.test_case "walks resume across windows" `Quick test_rateless_walk_resumes;
          Alcotest.test_case "skip table is exact" `Quick test_rateless_skip_table_exact;
          Alcotest.test_case "decoder walks resume across windows" `Quick
            test_rateless_decoder_walks_resume;
          Alcotest.test_case "decodes the difference" `Quick test_rateless_decodes_difference;
          Alcotest.test_case "equal pools decode empty" `Quick test_rateless_equal_pools;
          Alcotest.test_case "monotone in prefix" `Quick test_rateless_monotone_in_prefix;
          Alcotest.test_case "tolerates window loss" `Quick test_rateless_tolerates_loss;
          Alcotest.test_case "duplicate windows harmless" `Quick
            test_rateless_duplicate_windows_harmless;
          Alcotest.test_case "ground family stalls below w" `Quick
            test_rateless_ground_family_stalls;
        ] );
      ("properties", qcheck_tests);
    ]
