type fn = { key : int64 }

let make ~seed ~tag = { key = Prng.derive ~seed ~tag }

let hash_int64 { key } x = Prng.mix64 (Int64.add (Prng.mix64 (Int64.logxor x key)) key)

let hash_int f x = Int64.to_int (Int64.shift_right_logical (hash_int64 f (Int64.of_int x)) 2)

(* High 64 bits of the unsigned 128-bit product [x * y], via 32-bit limbs.
   The cross-term sum fits: lh <= (2^32-1)^2 and the two added terms are
   each < 2^32, so [cross] stays below 2^64. *)
let mulhi64 x y =
  let open Int64 in
  let mask = 0xFFFFFFFFL in
  let xl = logand x mask and xh = shift_right_logical x 32 in
  let yl = logand y mask and yh = shift_right_logical y 32 in
  let ll = mul xl yl in
  let lh = mul xl yh in
  let hl = mul xh yl in
  let hh = mul xh yh in
  let cross = add (add lh (shift_right_logical ll 32)) (logand hl mask) in
  add (add hh (shift_right_logical hl 32)) (shift_right_logical cross 32)

let reduce64 x m =
  if m <= 0 then invalid_arg "Hashing.reduce64: empty range";
  Int64.to_int (mulhi64 x (Int64.of_int m))

let to_range f m x =
  if m <= 0 then invalid_arg "Hashing.to_range: empty range";
  reduce64 (hash_int64 f (Int64.of_int x)) m

(* Byte strings hash by one chained SplitMix64 pass over their 8-byte
   little-endian words (a partial tail word is packed big-end first), and
   every exported byte hash finishes that one digest differently. OCaml
   boxes each [int64] that crosses a function boundary, and without
   flambda it does not inline functions this size on its own: so the step
   and the pass below are forced inline, their [int64]s stay unboxed, and
   none of the byte hashes allocates. The word load is the bounds-checked
   primitive, not the stdlib wrapper; the four-key pass below checks its
   lengths once and uses the unchecked one. *)
external bytes_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external bytes_get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let swap64 v =
  let open Int64 in
  let v = logor (shift_left v 32) (shift_right_logical v 32) in
  let v =
    logor
      (shift_left (logand v 0x0000FFFF0000FFFFL) 16)
      (shift_right_logical (logand v 0xFFFF0000FFFF0000L) 16)
  in
  logor
    (shift_left (logand v 0x00FF00FF00FF00FFL) 8)
    (shift_right_logical (logand v 0xFF00FF00FF00FF00L) 8)

(* [Prng.mix64] verbatim. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* The partial tail word of [b], bytes [from .. len - 1] packed big-end
   first. *)
let[@inline] tail_word b from len =
  let tail = ref 0L in
  for i = from to len - 1 do
    tail := Int64.logor (Int64.shift_left !tail 8) (Int64.of_int (Char.code (Bytes.unsafe_get b i)))
  done;
  !tail

let[@inline] step acc data = mix (Int64.logxor acc (if Sys.big_endian then swap64 data else data))

let[@inline] digest key b =
  let len = Bytes.length b in
  let words = len / 8 in
  let acc = ref (Int64.logxor key (Int64.of_int len)) in
  for w = 0 to words - 1 do
    acc := step !acc (bytes_get64 b (w * 8))
  done;
  if len mod 8 <> 0 then acc := mix (Int64.logxor !acc (tail_word b (words * 8) len));
  !acc

let[@inline] finish key acc = Int64.to_int (Int64.shift_right_logical (mix (Int64.add acc key)) 2)

let hash_bytes { key } b = finish key (digest key b)

(* The same digest over the words [Int64.of_int a.(i)]: exactly the pass
   [hash_bytes] makes over their little-endian encoding, which is 8 bytes
   per element with no tail. *)
let hash_ints { key } a =
  let acc = ref (Int64.logxor key (Int64.of_int (8 * Array.length a))) in
  for i = 0 to Array.length a - 1 do
    acc := mix (Int64.logxor !acc (Int64.of_int a.(i)))
  done;
  finish key !acc

(* Odd constant separating the two finalizer lanes; the data pass is
   shared, only the finish differs. The lanes leave as native 63-bit ints,
   so the IBLT per-element schedule that consumes them stays
   allocation-free. *)
let lane2 = 0x2545F4914F6CDD1D

let[@inline] lanes_at key acc out i =
  let d = Int64.to_int acc in
  let nk = Int64.to_int key in
  out.(i) <- Prng.mix_int (d + nk);
  out.(i + 1) <- Prng.mix_int (d lxor (nk + lane2))

let hash_bytes_into { key } b out = lanes_at key (digest key b) out 0

(* [digest] of four keys at once. Each key's chain is still one dependent
   run of multiplies, but the four chains are independent, so one pass
   over the word index keeps four of them in flight instead of waiting
   out one chain's latency per word. *)
let hash_bytes4_into { key } b0 b1 b2 b3 out =
  let len = Bytes.length b0 in
  if Bytes.length b1 <> len || Bytes.length b2 <> len || Bytes.length b3 <> len then
    invalid_arg "Hashing.hash_bytes4_into: keys differ in length";
  if Array.length out < 8 then invalid_arg "Hashing.hash_bytes4_into: out needs 8 entries";
  let words = len / 8 in
  let init = Int64.logxor key (Int64.of_int len) in
  let a0 = ref init and a1 = ref init and a2 = ref init and a3 = ref init in
  for w = 0 to words - 1 do
    let off = w * 8 in
    a0 := step !a0 (bytes_get64u b0 off);
    a1 := step !a1 (bytes_get64u b1 off);
    a2 := step !a2 (bytes_get64u b2 off);
    a3 := step !a3 (bytes_get64u b3 off)
  done;
  if len mod 8 <> 0 then begin
    let from = words * 8 in
    a0 := mix (Int64.logxor !a0 (tail_word b0 from len));
    a1 := mix (Int64.logxor !a1 (tail_word b1 from len));
    a2 := mix (Int64.logxor !a2 (tail_word b2 from len));
    a3 := mix (Int64.logxor !a3 (tail_word b3 from len))
  end;
  lanes_at key !a0 out 0;
  lanes_at key !a1 out 2;
  lanes_at key !a2 out 4;
  lanes_at key !a3 out 6

let hash_bytes_pair f b =
  let out = [| 0; 0 |] in
  hash_bytes_into f b out;
  (out.(0), out.(1))

(* Lanes of the little-endian [len]-byte encoding of [x] (zero padded),
   computed without materializing the bytes: the first 8-byte word of that
   encoding is exactly [Int64.of_int x], every further word is zero, and a
   partial tail word is zero too. Bit-identical to [hash_bytes_into] on the
   encoded buffer; this is the IBLT integer fast path's way of skipping
   the scratch-buffer round trip. Requires [len >= 8]. *)
let hash_int_bytes_into { key } x ~len out =
  let acc = ref (mix (Int64.logxor (Int64.logxor key (Int64.of_int len)) (Int64.of_int x))) in
  for _ = 2 to len / 8 do
    acc := mix !acc
  done;
  if len mod 8 <> 0 then acc := mix !acc;
  lanes_at key !acc out 0

let mix_pair h1 h2 = Prng.mix_int (h1 lxor (h2 * lane2)) land ((1 lsl 62) - 1)

let reduce_fast s m = ((s land 0x7FFFFFFF) * m) lsr 31

let truncate_bits x ~bits =
  if bits < 1 || bits > 62 then invalid_arg "Hashing.truncate_bits";
  x land ((1 lsl bits) - 1)

(* The per-attempt salt's tag space. The constant matches the derivation
   the resilient driver has always used for its per-attempt reconciliation
   seeds, so routing those call sites through here changed no transcript. *)
let attempt_tag = 0x5EED

let attempt_seed ~seed ~attempt =
  if attempt < 0 then invalid_arg "Hashing.attempt_seed: negative attempt";
  Prng.derive ~seed ~tag:(attempt_tag + attempt)
