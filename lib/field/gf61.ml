type t = int

let p = (1 lsl 61) - 1

let zero = 0
let one = 1

let[@inline] reduce_once x = if x >= p then x - p else x

let of_int x =
  if x < 0 then invalid_arg "Gf61.of_int: negative";
  if x < p then x else x mod p

let[@inline] add a b = reduce_once (a + b)

let[@inline] sub a b = reduce_once (a - b + p)

let neg a = if a = 0 then 0 else p - a

(* Reduce a value < 2^62 modulo the Mersenne prime: x = hi*2^61 + lo with
   2^61 ≡ 1 (mod p), so x ≡ hi + lo. *)
let[@inline] reduce62 x = reduce_once ((x lsr 61) + (x land p))

(* Multiply two elements < 2^61 splitting into 31/30-bit limbs:
     a = a1*2^31 + a0,  b = b1*2^31 + b0  (a1, b1 < 2^30; a0, b0 < 2^31)
     a*b = a1*b1*2^62 + (a1*b0 + a0*b1)*2^31 + a0*b0
   with 2^62 ≡ 2 and the cross term folded through 2^61 ≡ 1. Every
   intermediate stays below 2^62, hence within OCaml's 63-bit int. *)
let[@inline] mul a b =
  let a1 = a lsr 31 and a0 = a land 0x7FFFFFFF in
  let b1 = b lsr 31 and b0 = b land 0x7FFFFFFF in
  let hh = reduce62 (2 * a1 * b1) in
  let cross = (a1 * b0) + (a0 * b1) in
  (* cross < 2^62; cross*2^31 = ch*2^61 + cl*2^31 with ch = cross >> 30. *)
  let ch = cross lsr 30 and cl = cross land 0x3FFFFFFF in
  let mid = reduce62 (ch + (cl lsl 31)) in
  let ll = reduce62 (a0 * b0) in
  reduce_once (reduce_once (hh + mid) + ll)

let pow x k =
  if k < 0 then invalid_arg "Gf61.pow: negative exponent";
  let rec go base k acc =
    if k = 0 then acc
    else
      let acc = if k land 1 = 1 then mul acc base else acc in
      go (mul base base) (k lsr 1) acc
  in
  go x k one

let inv x = if x = 0 then raise Division_by_zero else pow x (p - 2)

(* Montgomery's batch-inversion trick: one Fermat inversion (~90 multiplies)
   amortized over the whole array, three multiplies per element. The
   rational-function recovery of CPI reconciliation inverts one denominator
   per evaluation point; batching turns d+2 inversions into one. *)
let batch_inv xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let prefix = Array.make n 0 in
    let acc = ref 1 in
    for i = 0 to n - 1 do
      prefix.(i) <- !acc;
      acc := mul !acc xs.(i)
    done;
    (* A zero anywhere zeroes the running product, so the single inversion
       below raises Division_by_zero exactly when element-wise [inv]
       would have. *)
    let suffix = ref (inv !acc) in
    let out = Array.make n 0 in
    for i = n - 1 downto 0 do
      out.(i) <- mul !suffix prefix.(i);
      suffix := mul !suffix xs.(i)
    done;
    out
  end

let read r = match Ssr_util.Codec.int62 r with Some v when v < p -> Some v | _ -> None

let random rng =
  let rec draw () =
    let x = Ssr_util.Prng.next_int rng land p in
    if x < p then x else draw ()
  in
  draw ()

let random_nonzero rng =
  let rec draw () =
    let x = random rng in
    if x <> 0 then x else draw ()
  in
  draw ()

let equal (a : int) b = a = b
