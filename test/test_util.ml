(* Unit and property tests for the ssr_util substrate. *)

module Prng = Ssr_util.Prng
module Bits = Ssr_util.Bits
module Buf = Ssr_util.Buf
module Hashing = Ssr_util.Hashing
module Iset = Ssr_util.Iset
module Crc32 = Ssr_util.Crc32

let seed = 0xDEADBEEFL

(* ---------- Prng ---------- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed and b = Prng.create ~seed in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_int_below_range () =
  let rng = Prng.create ~seed in
  for _ = 1 to 1000 do
    let x = Prng.int_below rng 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done

let test_prng_int_below_uniformish () =
  let rng = Prng.create ~seed in
  let counts = Array.make 8 0 in
  let n = 80_000 in
  for _ = 1 to n do
    let x = Prng.int_below rng 8 in
    counts.(x) <- counts.(x) + 1
  done;
  Array.iter
    (fun c ->
      let expected = n / 8 in
      Alcotest.(check bool) "within 10% of uniform" true (abs (c - expected) < expected / 10))
    counts

let test_prng_float_range () =
  let rng = Prng.create ~seed in
  for _ = 1 to 1000 do
    let f = Prng.float rng in
    Alcotest.(check bool) "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_prng_geometric_mean () =
  let rng = Prng.create ~seed in
  let p = 0.2 in
  let n = 50_000 in
  let total = ref 0 in
  for _ = 1 to n do
    total := !total + Prng.geometric_skip rng p
  done;
  let mean = float_of_int !total /. float_of_int n in
  let expected = (1.0 -. p) /. p in
  Alcotest.(check bool)
    (Printf.sprintf "geometric mean ~ %f got %f" expected mean)
    true
    (abs_float (mean -. expected) < 0.15)

let test_mix64_bijective_sample () =
  (* No collisions among many inputs (mix64 is a bijection). *)
  let tbl = Hashtbl.create 1000 in
  for i = 0 to 9999 do
    let v = Prng.mix64 (Int64.of_int i) in
    Alcotest.(check bool) "no collision" false (Hashtbl.mem tbl v);
    Hashtbl.add tbl v ()
  done

(* ---------- Bits ---------- *)

let test_lsb_index () =
  for i = 0 to 61 do
    Alcotest.(check int) "power of two" i (Bits.lsb_index (1 lsl i))
  done;
  Alcotest.(check int) "composite" 0 (Bits.lsb_index 7);
  Alcotest.(check int) "shifted" 3 (Bits.lsb_index 0b11000);
  Alcotest.check_raises "zero rejected" (Invalid_argument "Bits.lsb_index: zero") (fun () ->
      ignore (Bits.lsb_index 0))

let test_msb_index () =
  Alcotest.(check int) "one" 0 (Bits.msb_index 1);
  Alcotest.(check int) "seven" 2 (Bits.msb_index 7);
  Alcotest.(check int) "eight" 3 (Bits.msb_index 8)

let test_popcount () =
  Alcotest.(check int) "zero" 0 (Bits.popcount 0);
  Alcotest.(check int) "all small" 6 (Bits.popcount 0b111111);
  Alcotest.(check int) "spread" 2 (Bits.popcount ((1 lsl 50) lor 1));
  let rng = Prng.create ~seed in
  for _ = 1 to 200 do
    let x = Prng.next_int rng in
    let slow = ref 0 and y = ref x in
    while !y <> 0 do
      slow := !slow + (!y land 1);
      y := !y lsr 1
    done;
    Alcotest.(check int) "matches slow popcount" !slow (Bits.popcount x)
  done

let test_log_helpers () =
  Alcotest.(check int) "ceil_log2 1" 0 (Bits.ceil_log2 1);
  Alcotest.(check int) "ceil_log2 2" 1 (Bits.ceil_log2 2);
  Alcotest.(check int) "ceil_log2 3" 2 (Bits.ceil_log2 3);
  Alcotest.(check int) "ceil_log2 1024" 10 (Bits.ceil_log2 1024);
  Alcotest.(check int) "ceil_log2 1025" 11 (Bits.ceil_log2 1025);
  Alcotest.(check int) "ceil_pow2" 16 (Bits.ceil_pow2 9);
  Alcotest.(check bool) "is_pow2 16" true (Bits.is_pow2 16);
  Alcotest.(check bool) "is_pow2 12" false (Bits.is_pow2 12);
  Alcotest.(check int) "ceil_div" 3 (Bits.ceil_div 7 3);
  Alcotest.(check int) "ceil_div exact" 2 (Bits.ceil_div 6 3)

(* ---------- Buf ---------- *)

let test_buf_roundtrip () =
  let b = Bytes.make 16 '\000' in
  Buf.set_int_le b 0 123456789;
  Buf.set_int_le b 8 max_int;
  Alcotest.(check int) "first" 123456789 (Buf.get_int_le b 0);
  Alcotest.(check int) "second" max_int (Buf.get_int_le b 8)

let test_buf_xor () =
  let a = Bytes.of_string "abcdefghij" in
  let b = Bytes.of_string "1234567890" in
  let acc = Bytes.copy a in
  Buf.xor_into ~dst:acc b;
  Buf.xor_into ~dst:acc b;
  Alcotest.(check bytes) "xor twice is identity" a acc;
  Buf.xor_into ~dst:acc a;
  Alcotest.(check bool) "xor with self is zero" true (Buf.is_zero acc)

let test_buf_append () =
  let out = Buf.append_all [ Bytes.of_string "ab"; Bytes.of_string ""; Bytes.of_string "cd" ] in
  Alcotest.(check string) "concat" "abcd" (Bytes.to_string out)

(* The word-wide XOR paths have a byte-wise tail; every length from 1 to
   17 crosses the word/tail boundary differently (0, 1 and 2 full words,
   all tail sizes), and a tail bug would silently corrupt the byte after
   the region. Each case checks against a byte-wise oracle and checks the
   surrounding bytes are untouched. *)
let test_buf_xor_key_tails () =
  let rng = Prng.create ~seed:51L in
  for len = 1 to 17 do
    let pad = 3 in
    let dst = Bytes.init (pad + len + pad) (fun _ -> Char.chr (Prng.int_below rng 256)) in
    let src = Bytes.init len (fun _ -> Char.chr (Prng.int_below rng 256)) in
    let expect = Bytes.copy dst in
    for i = 0 to len - 1 do
      Bytes.set expect (pad + i)
        (Char.chr (Char.code (Bytes.get expect (pad + i)) lxor Char.code (Bytes.get src i)))
    done;
    Buf.xor_key_into ~dst ~pos:pad src;
    Alcotest.(check bytes) (Printf.sprintf "xor_key_into len=%d" len) expect dst
  done

let test_buf_xor_region_tails () =
  let rng = Prng.create ~seed:52L in
  for len = 1 to 17 do
    let dpad = 5 and spad = 2 in
    let dst = Bytes.init (dpad + len + dpad) (fun _ -> Char.chr (Prng.int_below rng 256)) in
    let src = Bytes.init (spad + len + 1) (fun _ -> Char.chr (Prng.int_below rng 256)) in
    let expect = Bytes.copy dst in
    for i = 0 to len - 1 do
      Bytes.set expect (dpad + i)
        (Char.chr
           (Char.code (Bytes.get expect (dpad + i)) lxor Char.code (Bytes.get src (spad + i))))
    done;
    Buf.xor_region_into ~dst ~dst_pos:dpad src ~src_pos:spad ~len;
    Alcotest.(check bytes) (Printf.sprintf "xor_region_into len=%d" len) expect dst
  done;
  Alcotest.check_raises "region bounds"
    (Invalid_argument "Buf.xor_region_into: out of bounds")
    (fun () -> Buf.xor_region_into ~dst:(Bytes.create 8) ~dst_pos:4 (Bytes.create 8) ~src_pos:0 ~len:5)

let test_buf_is_zero_tails () =
  for len = 0 to 17 do
    Alcotest.(check bool)
      (Printf.sprintf "zero len=%d" len)
      true
      (Buf.is_zero (Bytes.make len '\000'));
    (* Flip each byte in turn: a word-wide scan with a broken tail would
       miss exactly the last [len mod 8] positions. *)
    for i = 0 to len - 1 do
      let b = Bytes.make len '\000' in
      Bytes.set b i '\001';
      Alcotest.(check bool) (Printf.sprintf "nonzero len=%d byte=%d" len i) false (Buf.is_zero b)
    done
  done

(* ---------- Hashing ---------- *)

let test_hash_deterministic () =
  let f = Hashing.make ~seed ~tag:3 in
  let g = Hashing.make ~seed ~tag:3 in
  Alcotest.(check int) "same" (Hashing.hash_int f 42) (Hashing.hash_int g 42)

let test_hash_tag_sensitivity () =
  let f = Hashing.make ~seed ~tag:3 in
  let g = Hashing.make ~seed ~tag:4 in
  Alcotest.(check bool) "different tags differ" true (Hashing.hash_int f 42 <> Hashing.hash_int g 42)

let test_hash_to_range () =
  let f = Hashing.make ~seed ~tag:5 in
  for x = 0 to 999 do
    let h = Hashing.to_range f 13 x in
    Alcotest.(check bool) "in range" true (h >= 0 && h < 13)
  done

let test_hash_bytes_collision_free_sample () =
  let f = Hashing.make ~seed ~tag:6 in
  let tbl = Hashtbl.create 1000 in
  for i = 0 to 4999 do
    let b = Bytes.create 12 in
    Buf.set_int_le b 0 i;
    let h = Hashing.hash_bytes f b in
    Alcotest.(check bool) "bytes hash collision" false (Hashtbl.mem tbl h);
    Hashtbl.add tbl h ()
  done

let test_hash_bytes_length_matters () =
  let f = Hashing.make ~seed ~tag:7 in
  let a = Bytes.make 8 '\000' in
  let b = Bytes.make 9 '\000' in
  Alcotest.(check bool) "zero-padded lengths differ" true (Hashing.hash_bytes f a <> Hashing.hash_bytes f b)

let test_truncate_bits () =
  Alcotest.(check int) "truncate" 0b101 (Hashing.truncate_bits 0b11101 ~bits:3)

(* ---------- Iset ---------- *)

let test_iset_of_list_dedup () =
  let s = Iset.of_list [ 3; 1; 4; 1; 5; 9; 2; 6; 5; 3 ] in
  Alcotest.(check (list int)) "sorted unique" [ 1; 2; 3; 4; 5; 6; 9 ] (Iset.to_list s)

let test_iset_mem () =
  let s = Iset.of_list [ 2; 4; 6; 8 ] in
  Alcotest.(check bool) "mem 4" true (Iset.mem 4 s);
  Alcotest.(check bool) "mem 5" false (Iset.mem 5 s);
  Alcotest.(check bool) "mem empty" false (Iset.mem 5 Iset.empty)

let test_iset_ops () =
  let a = Iset.of_list [ 1; 2; 3; 4 ] and b = Iset.of_list [ 3; 4; 5; 6 ] in
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4; 5; 6 ] (Iset.to_list (Iset.union a b));
  Alcotest.(check (list int)) "inter" [ 3; 4 ] (Iset.to_list (Iset.inter a b));
  Alcotest.(check (list int)) "diff" [ 1; 2 ] (Iset.to_list (Iset.diff a b));
  Alcotest.(check (list int)) "sym_diff" [ 1; 2; 5; 6 ] (Iset.to_list (Iset.sym_diff a b));
  Alcotest.(check int) "sym_diff_size" 4 (Iset.sym_diff_size a b)

let test_iset_apply_diff () =
  let bob = Iset.of_list [ 1; 2; 3 ] in
  let alice = Iset.apply_diff bob ~add:(Iset.of_list [ 4; 5 ]) ~del:(Iset.of_list [ 2 ]) in
  Alcotest.(check (list int)) "applied" [ 1; 3; 4; 5 ] (Iset.to_list alice)

let test_iset_random_subset () =
  let rng = Prng.create ~seed in
  let s = Iset.random_subset rng ~universe:100 ~size:30 in
  Alcotest.(check int) "size" 30 (Iset.cardinal s);
  Iset.iter (fun x -> Alcotest.(check bool) "element in universe" true (x >= 0 && x < 100)) s;
  let dense = Iset.random_subset rng ~universe:10 ~size:10 in
  Alcotest.(check (list int)) "full universe" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (Iset.to_list dense)

let test_iset_min_max () =
  let s = Iset.of_list [ 5; 1; 9 ] in
  Alcotest.(check int) "min" 1 (Iset.min_elt s);
  Alcotest.(check int) "max" 9 (Iset.max_elt s)

(* ---------- Argument validation and edge cases ---------- *)

let test_validation () =
  let rng = Prng.create ~seed in
  Alcotest.check_raises "int_below 0" (Invalid_argument "Prng.int_below: bound must be positive")
    (fun () -> ignore (Prng.int_below rng 0));
  Alcotest.check_raises "geometric p=0" (Invalid_argument "Prng.geometric_skip: p out of range")
    (fun () -> ignore (Prng.geometric_skip rng 0.0));
  Alcotest.check_raises "truncate bits 0" (Invalid_argument "Hashing.truncate_bits") (fun () ->
      ignore (Hashing.truncate_bits 5 ~bits:0));
  Alcotest.check_raises "to_range 0" (Invalid_argument "Hashing.to_range: empty range") (fun () ->
      ignore (Hashing.to_range (Hashing.make ~seed ~tag:1) 0 5));
  Alcotest.check_raises "xor length" (Invalid_argument "Buf.xor_into: length mismatch") (fun () ->
      Buf.xor_into ~dst:(Bytes.create 4) (Bytes.create 5));
  Alcotest.check_raises "random_subset too big"
    (Invalid_argument "Iset.random_subset: size > universe") (fun () ->
      ignore (Iset.random_subset rng ~universe:3 ~size:4))

let test_geometric_p1 () =
  let rng = Prng.create ~seed in
  for _ = 1 to 20 do
    Alcotest.(check int) "p=1 always 0" 0 (Prng.geometric_skip rng 1.0)
  done

let test_prng_copy_independent () =
  let a = Prng.create ~seed in
  ignore (Prng.next_int64 a);
  let b = Prng.copy a in
  let xa = Prng.next_int64 a and xb = Prng.next_int64 b in
  Alcotest.(check int64) "copy continues identically" xa xb;
  (* advancing one does not advance the other *)
  ignore (Prng.next_int64 a);
  let ya = Prng.next_int64 a and yb = Prng.next_int64 b in
  Alcotest.(check bool) "streams diverge after skew" true (ya <> yb)

let test_bernoulli_extremes () =
  let rng = Prng.create ~seed in
  for _ = 1 to 20 do
    Alcotest.(check bool) "p=0 never" false (Prng.bernoulli rng 0.0)
  done;
  for _ = 1 to 20 do
    Alcotest.(check bool) "p=1 always (float < 1)" true (Prng.bernoulli rng 1.0)
  done

let test_hash_empty_bytes () =
  let f = Hashing.make ~seed ~tag:9 in
  let h = Hashing.hash_bytes f Bytes.empty in
  Alcotest.(check bool) "nonnegative" true (h >= 0);
  Alcotest.(check int) "deterministic" h (Hashing.hash_bytes f Bytes.empty)

(* [hash_bytes] values from before its data pass was rewritten to stay
   unboxed. They reach the wire through the child hashes of every nested
   encoding, so a changed value is a changed transcript. Keys cover every
   tail length and one 4 KiB key. *)
let golden_fn = Hashing.make ~seed:0x601DE17L ~tag:0x4B

let golden_key n = Bytes.init n (fun i -> Char.chr (((i * 151) + 29) land 0xFF))

let hash_bytes_golden =
  [
    (0, 316558656531324662); (1, 4234749282532545659); (2, 682249021679927972);
    (3, 2501679767371335388); (4, 1706992804894288305); (5, 1935921611216536237);
    (6, 76736879332667200); (7, 4516322930349027837); (8, 3777244522967442750);
    (9, 897126509491353598); (10, 1683858050554071703); (11, 480751730513815770);
    (12, 1484540597125027692); (13, 547071267044141373); (14, 3095843596936585561);
    (15, 3873111373412436703); (16, 2379896696770506316); (17, 4401106995683873945);
    (4096, 2516578781125262490);
  ]

let test_hash_bytes_golden () =
  List.iter
    (fun (n, expect) ->
      Alcotest.(check int) (Printf.sprintf "%d-byte key" n) expect
        (Hashing.hash_bytes golden_fn (golden_key n)))
    hash_bytes_golden

(* The IBLT position/checksum lanes, same keys and provenance. *)
let test_hash_bytes_pair_golden () =
  List.iter
    (fun (n, l1, l2) ->
      Alcotest.(check (pair int int)) (Printf.sprintf "%d-byte key" n) (l1, l2)
        (Hashing.hash_bytes_pair golden_fn (golden_key n)))
    [
      (0, 3114765179952896533, -2060005882011914108);
      (5, -3548374439223923026, -832853005022644255);
      (8, -2356651794067581233, 1969210582463008327);
      (17, 354070001563665484, 1007724252785537016);
      (4096, -371661399917458495, 1563879917166420334);
    ]

(* The four-key digest against the single-key one, at every golden length:
   four different keys of one length (all four are empty at length 0) in
   the four slots, so a slot whose lanes land elsewhere or come from
   another slot's chain fails. *)
let test_hash_bytes4_matches_single () =
  List.iter
    (fun (n, _) ->
      let keys =
        Array.init 4 (fun slot ->
            Bytes.init n (fun i -> Char.chr (((i * 151) + 29 + (slot * 67)) land 0xFF)))
      in
      let out = Array.make 8 0 in
      Hashing.hash_bytes4_into golden_fn keys.(0) keys.(1) keys.(2) keys.(3) out;
      Array.iteri
        (fun slot key ->
          let one = [| 0; 0 |] in
          Hashing.hash_bytes_into golden_fn key one;
          Alcotest.(check (pair int int))
            (Printf.sprintf "%d-byte keys, slot %d" n slot)
            (one.(0), one.(1))
            (out.(2 * slot), out.((2 * slot) + 1)))
        keys)
    hash_bytes_golden;
  let k8 = Bytes.make 8 'a' and k9 = Bytes.make 9 'a' in
  Alcotest.check_raises "unequal lengths"
    (Invalid_argument "Hashing.hash_bytes4_into: keys differ in length") (fun () ->
      Hashing.hash_bytes4_into golden_fn k8 k8 k9 k8 (Array.make 8 0));
  Alcotest.check_raises "short out"
    (Invalid_argument "Hashing.hash_bytes4_into: out needs 8 entries") (fun () ->
      Hashing.hash_bytes4_into golden_fn k8 k8 k8 k8 (Array.make 7 0))

(* ---------- Crc32 ---------- *)

(* Byte-wise CRC-32 straight from the reflected polynomial, one bit at a
   time: the reference the table-driven digest must match. *)
let ref_crc32 b ~pos ~len =
  let crc = ref 0xFFFF_FFFF in
  for i = pos to pos + len - 1 do
    crc := !crc lxor Char.code (Bytes.get b i);
    for _ = 0 to 7 do
      crc := if !crc land 1 <> 0 then 0xEDB88320 lxor (!crc lsr 1) else !crc lsr 1
    done
  done;
  Int32.of_int (!crc lxor 0xFFFF_FFFF)

let test_crc32_known_answers () =
  Alcotest.(check int32) "123456789" 0xCBF43926l (Crc32.digest (Bytes.of_string "123456789"));
  Alcotest.(check int32) "empty" 0l (Crc32.digest Bytes.empty);
  let b = Bytes.init 80 (fun i -> Char.chr (((i * 193) + 7) land 0xFF)) in
  List.iter
    (fun pos ->
      for len = 0 to 64 do
        Alcotest.(check int32)
          (Printf.sprintf "pos=%d len=%d" pos len)
          (ref_crc32 b ~pos ~len) (Crc32.digest_sub b ~pos ~len)
      done)
    [ 0; 1; 3; 7; 8; 13 ];
  Alcotest.check_raises "range outside buffer"
    (Invalid_argument "Crc32.digest_sub: range outside buffer") (fun () ->
      ignore (Crc32.digest_sub b ~pos:20 ~len:61))

let test_buf_get_int_overflow_detected () =
  (* 0x7FFFFFFFFFFFFFFF needs 64 value bits: not representable as a native
     63-bit int, so reading it back must fail loudly. *)
  let b = Bytes.make 8 '\xFF' in
  Bytes.set b 7 '\x7F';
  Alcotest.(check bool) "failure raised" true
    (try
       ignore (Buf.get_int_le b 0);
       false
     with Failure _ -> true);
  (* All-ones is -1, which IS representable; no failure expected. *)
  Alcotest.(check int) "minus one roundtrips" (-1) (Buf.get_int_le (Bytes.make 8 '\xFF') 0)

let test_iset_unchecked_constructor () =
  let s = Iset.of_sorted_array_unchecked [| 1; 5; 9 |] in
  Alcotest.(check int) "cardinal" 3 (Iset.cardinal s);
  Alcotest.(check bool) "mem" true (Iset.mem 5 s)

let test_iset_empty_ops () =
  Alcotest.(check bool) "union with empty" true (Iset.equal (Iset.of_list [ 1 ]) (Iset.union Iset.empty (Iset.of_list [ 1 ])));
  Alcotest.(check bool) "inter with empty" true (Iset.is_empty (Iset.inter Iset.empty (Iset.of_list [ 1 ])));
  Alcotest.(check int) "sym_diff_size with empty" 1 (Iset.sym_diff_size Iset.empty (Iset.of_list [ 7 ]));
  Alcotest.(check bool) "min_elt raises" true
    (try
       ignore (Iset.min_elt Iset.empty);
       false
     with Not_found -> true)

let test_iset_add_remove_identity () =
  let s = Iset.of_list [ 2; 4 ] in
  Alcotest.(check bool) "add existing is identity" true (Iset.equal s (Iset.add 2 s));
  Alcotest.(check bool) "remove missing is identity" true (Iset.equal s (Iset.remove 9 s))

(* ---------- qcheck properties ---------- *)

let iset_gen = QCheck.Gen.(map Iset.of_list (list_size (int_bound 60) (int_bound 200)))
let iset_arb = QCheck.make ~print:(Format.asprintf "%a" Iset.pp) iset_gen

let prop_sym_diff_commutes =
  QCheck.Test.make ~name:"sym_diff commutes" ~count:200 (QCheck.pair iset_arb iset_arb)
    (fun (a, b) -> Iset.equal (Iset.sym_diff a b) (Iset.sym_diff b a))

let prop_sym_diff_size_consistent =
  QCheck.Test.make ~name:"sym_diff_size = |sym_diff|" ~count:200 (QCheck.pair iset_arb iset_arb)
    (fun (a, b) -> Iset.sym_diff_size a b = Iset.cardinal (Iset.sym_diff a b))

let prop_union_inter_cardinality =
  QCheck.Test.make ~name:"|A|+|B| = |A∪B|+|A∩B|" ~count:200 (QCheck.pair iset_arb iset_arb)
    (fun (a, b) ->
      Iset.cardinal a + Iset.cardinal b = Iset.cardinal (Iset.union a b) + Iset.cardinal (Iset.inter a b))

let prop_apply_diff_recovers =
  QCheck.Test.make ~name:"apply_diff bob (A\\B) (B\\A) = alice" ~count:200
    (QCheck.pair iset_arb iset_arb) (fun (a, b) ->
      Iset.equal a (Iset.apply_diff b ~add:(Iset.diff a b) ~del:(Iset.diff b a)))

let prop_canonical_bytes_injective =
  QCheck.Test.make ~name:"canonical_bytes injective on samples" ~count:200
    (QCheck.pair iset_arb iset_arb) (fun (a, b) ->
      Iset.equal a b = Bytes.equal (Iset.canonical_bytes a) (Iset.canonical_bytes b))

(* Elements up to [max_int] exercise the sign-extension of the encoding's
   top word; the empty set hashes the empty key. *)
let prop_digest_is_hash_of_canonical_bytes =
  let wide =
    QCheck.Gen.(
      map Iset.of_list
        (list_size (int_bound 40)
           (oneof [ int_bound 1000; map (fun k -> max_int - k) (int_bound 1000); map (fun x -> x land max_int) int ])))
  in
  QCheck.Test.make ~name:"digest = hash_bytes of canonical_bytes" ~count:300
    (QCheck.pair (QCheck.make ~print:(Format.asprintf "%a" Iset.pp) wide) QCheck.int64)
    (fun (c, fseed) ->
      let f = Hashing.make ~seed:fseed ~tag:0x57A9 in
      Iset.digest f c = Hashing.hash_bytes f (Iset.canonical_bytes c)
      && Iset.digest f Iset.empty = Hashing.hash_bytes f Bytes.empty)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_sym_diff_commutes;
      prop_sym_diff_size_consistent;
      prop_union_inter_cardinality;
      prop_apply_diff_recovers;
      prop_canonical_bytes_injective;
      prop_digest_is_hash_of_canonical_bytes;
    ]

let () =
  Alcotest.run "ssr_util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "int_below range" `Quick test_prng_int_below_range;
          Alcotest.test_case "int_below uniform-ish" `Quick test_prng_int_below_uniformish;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "geometric mean" `Quick test_prng_geometric_mean;
          Alcotest.test_case "mix64 injective sample" `Quick test_mix64_bijective_sample;
        ] );
      ( "bits",
        [
          Alcotest.test_case "lsb_index" `Quick test_lsb_index;
          Alcotest.test_case "msb_index" `Quick test_msb_index;
          Alcotest.test_case "popcount" `Quick test_popcount;
          Alcotest.test_case "log helpers" `Quick test_log_helpers;
        ] );
      ( "buf",
        [
          Alcotest.test_case "int roundtrip" `Quick test_buf_roundtrip;
          Alcotest.test_case "xor involution" `Quick test_buf_xor;
          Alcotest.test_case "append" `Quick test_buf_append;
          Alcotest.test_case "xor_key_into tails" `Quick test_buf_xor_key_tails;
          Alcotest.test_case "xor_region_into tails" `Quick test_buf_xor_region_tails;
          Alcotest.test_case "is_zero tails" `Quick test_buf_is_zero_tails;
        ] );
      ( "hashing",
        [
          Alcotest.test_case "deterministic" `Quick test_hash_deterministic;
          Alcotest.test_case "tag sensitivity" `Quick test_hash_tag_sensitivity;
          Alcotest.test_case "to_range" `Quick test_hash_to_range;
          Alcotest.test_case "bytes collision-free sample" `Quick test_hash_bytes_collision_free_sample;
          Alcotest.test_case "bytes length matters" `Quick test_hash_bytes_length_matters;
          Alcotest.test_case "truncate_bits" `Quick test_truncate_bits;
          Alcotest.test_case "hash_bytes golden values" `Quick test_hash_bytes_golden;
          Alcotest.test_case "hash_bytes_pair golden lanes" `Quick test_hash_bytes_pair_golden;
          Alcotest.test_case "hash_bytes4_into = hash_bytes_into per slot" `Quick
            test_hash_bytes4_matches_single;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "known answers and byte-wise reference" `Quick
            test_crc32_known_answers;
        ] );
      ( "iset",
        [
          Alcotest.test_case "of_list dedup" `Quick test_iset_of_list_dedup;
          Alcotest.test_case "mem" `Quick test_iset_mem;
          Alcotest.test_case "set ops" `Quick test_iset_ops;
          Alcotest.test_case "apply_diff" `Quick test_iset_apply_diff;
          Alcotest.test_case "random_subset" `Quick test_iset_random_subset;
          Alcotest.test_case "min/max" `Quick test_iset_min_max;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "argument validation" `Quick test_validation;
          Alcotest.test_case "geometric p=1" `Quick test_geometric_p1;
          Alcotest.test_case "prng copy" `Quick test_prng_copy_independent;
          Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
          Alcotest.test_case "hash empty bytes" `Quick test_hash_empty_bytes;
          Alcotest.test_case "buf overflow detected" `Quick test_buf_get_int_overflow_detected;
          Alcotest.test_case "iset unchecked constructor" `Quick test_iset_unchecked_constructor;
          Alcotest.test_case "iset empty ops" `Quick test_iset_empty_ops;
          Alcotest.test_case "iset add/remove identity" `Quick test_iset_add_remove_identity;
        ] );
      ("iset-properties", qcheck_tests);
    ]
