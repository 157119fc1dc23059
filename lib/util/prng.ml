let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* Native-int counterpart of [mix64] for allocation-free hot paths: OCaml
   boxes every [int64] that crosses a function boundary, so kernels that
   mix per element (IBLT position schedules) pay ~24 bytes and a write
   barrier per step if they stay on [int64]. This variant is a bijection
   on the 63-bit native-int domain: xorshift steps are invertible and the
   multipliers are odd (invertible mod 2^63). Constants are 62-bit odd
   values (OCaml int literals cannot reach the canonical 64-bit SplitMix
   constants); avalanche is a little weaker than [mix64] but far beyond
   what the pairwise-independence proofs require. *)
let mix_int x =
  let x = (x lxor (x lsr 33)) * 0x2545F4914F6CDD1D in
  let x = (x lxor (x lsr 29)) * 0x1D8E4E27C47D124F in
  x lxor (x lsr 32)

(* SplitMix64 stream: used only to seed xoshiro and to derive sub-seeds. *)
let splitmix_next state =
  state := Int64.add !state golden_gamma;
  mix64 !state

type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

let create ~seed =
  let st = ref seed in
  let s0 = splitmix_next st in
  let s1 = splitmix_next st in
  let s2 = splitmix_next st in
  let s3 = splitmix_next st in
  { s0; s1; s2; s3 }

let copy t = { s0 = t.s0; s1 = t.s1; s2 = t.s2; s3 = t.s3 }

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* xoshiro256** *)
let next_int64 t =
  let result = Int64.mul (rotl (Int64.mul t.s1 5L) 7) 9L in
  let tmp = Int64.shift_left t.s1 17 in
  t.s2 <- Int64.logxor t.s2 t.s0;
  t.s3 <- Int64.logxor t.s3 t.s1;
  t.s1 <- Int64.logxor t.s1 t.s2;
  t.s0 <- Int64.logxor t.s0 t.s3;
  t.s2 <- Int64.logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let next_int t =
  (* Keep 62 bits so the result is a non-negative native int even on the
     63-bit representation. *)
  Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int_below t n =
  if n <= 0 then invalid_arg "Prng.int_below: bound must be positive";
  let limit = (max_int / n) * n in
  let rec draw () =
    let x = next_int t in
    if x < limit then x mod n else draw ()
  in
  draw ()

let float t =
  (* 53 random bits over [0, 1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
  float_of_int bits *. 0x1p-53

let bool t = Int64.logand (next_int64 t) 1L = 1L

let bernoulli t p = float t < p

let geometric_skip t p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Prng.geometric_skip: p out of range";
  if p >= 1.0 then 0
  else
    let u = float t in
    (* Inverse CDF; 1 - u is in (0,1] so log is well defined. *)
    int_of_float (Float.floor (log1p (-.u) /. log1p (-.p)))

let derive ~seed ~tag = mix64 (Int64.add (mix64 seed) (Int64.of_int (tag * 2 + 1)))
