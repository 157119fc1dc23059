type t = int array
(* Invariant: either empty (the zero polynomial) or the last element is
   nonzero. Index i holds the coefficient of z^i. *)

let m_karatsuba = Ssr_obs.Metrics.counter "field.karatsuba.calls"
let m_newton = Ssr_obs.Metrics.counter "field.newton.reductions"

(* ---- Module-local field ops -------------------------------------------

   Copies of the handful of Gf61 operations the multiplication kernels sit
   on. Dune's dev profile compiles with -opaque, which hides every other
   module's implementation from the Closure inliner: a cross-module
   Gf61.mul_add in an inner loop compiles to a generic caml_apply3
   (measured ~20 ns/op against ~7 ns for the inlined body — the whole
   speedup of this module would vanish in default builds). Module-local
   [@inline] definitions are inlined regardless of build profile. Gf61
   stays the source of truth for the arithmetic; these must match it
   bit for bit (test_field pins Poly against Gf61-built references). *)

let fp = (1 lsl 61) - 1

(* Branchless canonical step: for 0 <= x <= 2p, subtract p iff x >= p.
   x >= p  <=>  p - 1 - x < 0, so (p - 1 - x) asr 62 is all-ones exactly
   then. The field data flowing through these kernels is effectively
   random, so the branchy form mispredicts ~half the time; the mask form
   measures 13 vs 22 ns/mul in the schoolbook inner loop. *)
let[@inline] freduce_once x = x - (fp land ((fp - 1 - x) asr 62))
let[@inline] fadd a b = freduce_once (a + b)
let[@inline] fsub a b = freduce_once (a - b + fp)

(* Fold 2^61 = 1 (mod p) for x < 2^62. Result <= 2^61: congruent but not
   canonical — callers account for the extra headroom explicitly. *)
let[@inline] fsemi62 x = (x lsr 61) + (x land fp)

(* a*b mod p as a semi-reduced value <= 2p, delaying canonicalization so
   fused accumulators pay one less reduction. Limb split as in Gf61.mul:
   a = a1*2^31 + a0 (a1 < 2^30, a0 < 2^31), same for b. Ranges:
     hh  = 2*a1*b1        <= 2^61 - 2^32 + 2   (2^62 = 2 mod p)
     t   = semi(a0*b0)+hh <  2^62, so fsemi62 t <= p
     mid = fsemi62 (cross*2^31 folded) <= p
   so the sum is <= 2p < 2^62 and every intermediate fits 63-bit int. *)
let[@inline] fmul_semi a b =
  let a1 = a lsr 31 and a0 = a land 0x7FFFFFFF in
  let b1 = b lsr 31 and b0 = b land 0x7FFFFFFF in
  let hh = 2 * a1 * b1 in
  let t = fsemi62 (a0 * b0) + hh in
  let cross = (a1 * b0) + (a0 * b1) in
  let ch = cross lsr 30 and cl = cross land 0x3FFFFFFF in
  let mid = fsemi62 (ch + (cl lsl 31)) in
  fsemi62 t + mid

(* Canonical product: two steps because the semi value can be exactly 2p. *)
let[@inline] fmul a b = freduce_once (freduce_once (fmul_semi a b))

(* acc < p and freduce_once(semi) <= p, so acc + it <= 2p - 1 and one more
   step lands strictly below p. *)
let[@inline] fmul_add acc a b =
  freduce_once (acc + freduce_once (fmul_semi a b))

let[@inline] fmul_sub acc a b =
  freduce_once (acc - freduce_once (fmul_semi a b) + fp)

let zero = [||]

let normalize arr =
  let n = Array.length arr in
  let rec top i = if i >= 0 && arr.(i) = 0 then top (i - 1) else i in
  let d = top (n - 1) in
  if d = n - 1 then arr else Array.sub arr 0 (d + 1)

let of_coeffs arr = normalize (Array.copy arr)

let constant c = if c = 0 then [||] else [| c |]

let one = [| 1 |]

let coeffs t = Array.copy t

let degree t = Array.length t - 1

let is_zero t = Array.length t = 0

let equal (a : t) b = a = b

let coeff t i = if i < Array.length t then t.(i) else 0

let eval t x =
  let acc = ref 0 in
  for i = Array.length t - 1 downto 0 do
    acc := fadd (fmul !acc x) t.(i)
  done;
  !acc

(* Results below are built directly at their final length where possible;
   only a same-length sum/difference can cancel leading terms, so the
   normalize scan is paid exactly when it can matter. *)

let top_len arr n =
  let rec go i = if i >= 0 && arr.(i) = 0 then go (i - 1) else i + 1 in
  go (n - 1)

let add a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 then b
  else if lb = 0 then a
  else begin
    let n = max la lb in
    let out = Array.make n 0 in
    Array.blit (if la >= lb then a else b) 0 out 0 n;
    for i = 0 to min la lb - 1 do
      out.(i) <- fadd a.(i) b.(i)
    done;
    if la <> lb then out
    else
      let len = top_len out n in
      if len = n then out else Array.sub out 0 len
  end

let sub a b =
  let la = Array.length a and lb = Array.length b in
  if lb = 0 then a
  else begin
    let n = max la lb in
    let out = Array.make n 0 in
    let m = min la lb in
    for i = 0 to m - 1 do
      out.(i) <- fsub a.(i) b.(i)
    done;
    for i = m to la - 1 do
      out.(i) <- a.(i)
    done;
    for i = m to lb - 1 do
      out.(i) <- Gf61.neg b.(i)
    done;
    if la <> lb then out
    else
      let len = top_len out n in
      if len = n then out else Array.sub out 0 len
  end

(* ---- Multiplication kernels ------------------------------------------

   Two layers: accumulating schoolbook base cases on raw slices, and a
   Karatsuba recursion on top that kicks in above [kara_cutoff]. All
   kernels *accumulate* into dst, which makes the Karatsuba three-way
   recombination and the unbalanced split both plain adds with no overlap
   bookkeeping; callers zero the destination region first.

   Everything runs inside a caller-provided workspace array with
   stack-discipline offsets. OCaml promotes arrays longer than 256 words
   straight to the major heap, so per-node temporaries would turn every
   large multiply into major-GC churn; one flat scratch region per kernel
   invocation (or per reducer, see below) makes the recursion
   allocation-free. Unsafe accesses throughout: offsets and lengths are
   derived from the same arithmetic that sized the workspace
   ([ws_bound]), and the slice endpoints are checked by construction.

   Field addition is exactly associative/commutative, so the Karatsuba
   result is bit-identical to schoolbook — fixed-seed tests cannot tell
   the paths apart. *)

(* Below this operand length the O(n^2) schoolbook kernel wins: Karatsuba
   trades one length-n multiply for ~4n additions plus bookkeeping, and
   fmul is only ~4 adds worth of work once inlined. Tuned on the perf
   bench (dune exec bench/main.exe -- perf, field suite); see
   BENCH_field.json. *)
let kara_cutoff = 20

(* Workspace words needed by kara_acc/ksqr_acc on operands of length
   <= n: each level's frame is < 8m for m = (n+1)/2 and the recursion
   halves, so 8n covers the geometric tail; +64 absorbs the +1 rounding
   of odd splits across all levels. *)
let ws_bound n = (8 * n) + 64

(* Per-domain reusable workspace. Karatsuba scratch is needed on every
   product, and OCaml allocates arrays longer than 256 words directly on
   the major heap — a fresh scratch per call would buy a proportional
   slice of major-GC work each time and dominate the kernel (measured
   ~3x). Domain-local so callers on different domains get distinct
   buffers; the kernels never nest across an allocation point, so one
   grow-only buffer per domain suffices. Contents are NOT zeroed between
   uses — every kernel fills the regions it reads. *)
let ws_key = Domain.DLS.new_key (fun () -> ref [||])

let get_ws n =
  let r = Domain.DLS.get ws_key in
  if Array.length !r < n then r := Array.make n 0;
  !r

(* dst[doff ..] += a[ao, ao+la) * b[bo, bo+lb), schoolbook. The fmul_semi
   body is open-coded so the fixed row element's limbs (a1/a0 and the
   pre-doubled high limb) are hoisted out of the inner loop — the inliner
   re-extracts them per iteration otherwise. *)
let school_acc dst doff a ao la b bo lb =
  for i = 0 to la - 1 do
    let ai = Array.unsafe_get a (ao + i) in
    if ai <> 0 then begin
      let a1 = ai lsr 31 and a0 = ai land 0x7FFFFFFF in
      let a1d = 2 * a1 in
      let base = doff + i in
      for j = 0 to lb - 1 do
        let bj = Array.unsafe_get b (bo + j) in
        let b1 = bj lsr 31 and b0 = bj land 0x7FFFFFFF in
        let t = fsemi62 (a0 * b0) + (a1d * b1) in
        let cross = (a1 * b0) + (a0 * b1) in
        let ch = cross lsr 30 and cl = cross land 0x3FFFFFFF in
        let mid = fsemi62 (ch + (cl lsl 31)) in
        let k = base + j in
        Array.unsafe_set dst k
          (freduce_once
             (Array.unsafe_get dst k + freduce_once (fsemi62 t + mid)))
      done
    end
  done

(* As school_acc but only output positions < doff + klim are needed;
   clips both loops so no multiply is spent above the limit. *)
let school_low_acc dst doff a ao la b bo lb klim =
  let imax = min (la - 1) (klim - 1) in
  for i = 0 to imax do
    let ai = Array.unsafe_get a (ao + i) in
    if ai <> 0 then begin
      let a1 = ai lsr 31 and a0 = ai land 0x7FFFFFFF in
      let a1d = 2 * a1 in
      let base = doff + i in
      let jmax = min (lb - 1) (klim - 1 - i) in
      for j = 0 to jmax do
        let bj = Array.unsafe_get b (bo + j) in
        let b1 = bj lsr 31 and b0 = bj land 0x7FFFFFFF in
        let t = fsemi62 (a0 * b0) + (a1d * b1) in
        let cross = (a1 * b0) + (a0 * b1) in
        let ch = cross lsr 30 and cl = cross land 0x3FFFFFFF in
        let mid = fsemi62 (ch + (cl lsl 31)) in
        let k = base + j in
        Array.unsafe_set dst k
          (freduce_once
             (Array.unsafe_get dst k + freduce_once (fsemi62 t + mid)))
      done
    end
  done

(* dst[doff ..] += a[ao, ao+la)^2: each off-diagonal product is computed
   once and added twice, halving the multiplies. *)
let school_sqr_acc dst doff a ao la =
  for i = 0 to la - 1 do
    let ai = Array.unsafe_get a (ao + i) in
    if ai <> 0 then begin
      let a1 = ai lsr 31 and a0 = ai land 0x7FFFFFFF in
      let a1d = 2 * a1 in
      let kd = doff + (2 * i) in
      Array.unsafe_set dst kd (fmul_add (Array.unsafe_get dst kd) ai ai);
      let base = doff + i in
      for j = i + 1 to la - 1 do
        let bj = Array.unsafe_get a (ao + j) in
        let b1 = bj lsr 31 and b0 = bj land 0x7FFFFFFF in
        let t = fsemi62 (a0 * b0) + (a1d * b1) in
        let cross = (a1 * b0) + (a0 * b1) in
        let ch = cross lsr 30 and cl = cross land 0x3FFFFFFF in
        let mid = fsemi62 (ch + (cl lsl 31)) in
        let x = freduce_once (freduce_once (fsemi62 t + mid)) in
        let k = base + j in
        Array.unsafe_set dst k (fadd (fadd (Array.unsafe_get dst k) x) x)
      done
    end
  done

(* dst[doff+..] += z0 + x^m (z1 - z0 - z2) + x^2m z2, the Karatsuba
   recombination; z0/z1/z2 live in the workspace at the given offsets.
   Caller guarantees dst reaches doff + 2m + l2 - 1. *)
let kara_merge dst doff m ws z0 l0 z1 l1 z2 l2 =
  for i = 0 to l0 - 1 do
    let v = Array.unsafe_get ws (z0 + i) in
    if v <> 0 then begin
      let k = doff + i in
      Array.unsafe_set dst k (fadd (Array.unsafe_get dst k) v);
      let k = k + m in
      Array.unsafe_set dst k (fsub (Array.unsafe_get dst k) v)
    end
  done;
  for i = 0 to l2 - 1 do
    let v = Array.unsafe_get ws (z2 + i) in
    if v <> 0 then begin
      let k = doff + (2 * m) + i in
      Array.unsafe_set dst k (fadd (Array.unsafe_get dst k) v);
      let k = k - m in
      Array.unsafe_set dst k (fsub (Array.unsafe_get dst k) v)
    end
  done;
  for i = 0 to l1 - 1 do
    let v = Array.unsafe_get ws (z1 + i) in
    if v <> 0 then begin
      let k = doff + m + i in
      Array.unsafe_set dst k (fadd (Array.unsafe_get dst k) v)
    end
  done

(* ws[so, so+m) <- a0 + a1 over the split of a[ao, ao+la) at m (the high
   half may be shorter). *)
let split_sum ws so a ao la m =
  let hi = la - m in
  for i = 0 to hi - 1 do
    Array.unsafe_set ws (so + i)
      (fadd (Array.unsafe_get a (ao + i)) (Array.unsafe_get a (ao + m + i)))
  done;
  for i = hi to m - 1 do
    Array.unsafe_set ws (so + i) (Array.unsafe_get a (ao + i))
  done

let rec kara_acc ws wo dst doff a ao la b bo lb =
  if la < lb then kara_acc ws wo dst doff b bo lb a ao la
  else if lb <= kara_cutoff then school_acc dst doff a ao la b bo lb
  else begin
    (* la >= lb > kara_cutoff *)
    let m = (la + 1) / 2 in
    if lb <= m then begin
      (* Unbalanced: b lives entirely below the split, so the product is
         just two accumulated half-products. *)
      kara_acc ws wo dst doff a ao m b bo lb;
      kara_acc ws wo dst (doff + m) a (ao + m) (la - m) b bo lb
    end
    else begin
      let la1 = la - m and lb1 = lb - m in
      let l0 = (2 * m) - 1 in
      let l2 = la1 + lb1 - 1 in
      let z0 = wo in
      let z2 = z0 + l0 in
      let z1 = z2 + l2 in
      let sa = z1 + l0 in
      let sb = sa + m in
      let wo' = sb + m in
      Array.fill ws z0 (l0 + l2 + l0) 0;
      kara_acc ws wo' ws z0 a ao m b bo m;
      kara_acc ws wo' ws z2 a (ao + m) la1 b (bo + m) lb1;
      split_sum ws sa a ao la m;
      split_sum ws sb b bo lb m;
      kara_acc ws wo' ws z1 ws sa m ws sb m;
      kara_merge dst doff m ws z0 l0 z1 l0 z2 l2
    end
  end

(* dst[doff, doff+klim) += the low [klim] coefficients of
   a[ao, ao+la) * b[bo, bo+lb)  (Mulders' short product). Positions from
   doff+klim up to doff+la+lb-2 may also be written with partial garbage —
   callers must size dst for the full product and ignore the tail.

   Split at m ~ 2*klim/3: the low halves get one FULL m x m Karatsuba
   product (subquadratic), the two cross terms recurse as short products
   of a third the size, and the high x high term starts at x^2m >= x^klim
   so it is skipped entirely. Solves to ~0.81 of a full multiply — the
   Newton reduction below does two of these per squaring, so the saving
   is the single biggest line item in powmod. *)
let rec kara_low_acc ws wo dst doff a ao la b bo lb klim =
  if la < lb then kara_low_acc ws wo dst doff b bo lb a ao la klim
  else begin
    (* Coefficients at or above klim cannot contribute below it. *)
    let la = min la klim and lb = min lb klim in
    if lb > 0 then begin
      if klim >= la + lb - 1 then kara_acc ws wo dst doff a ao la b bo lb
      else if lb <= kara_cutoff then
        school_low_acc dst doff a ao la b bo lb klim
      else begin
        (* la >= lb > cutoff, and la <= klim <= la + lb - 2 <= 2*(la-1),
           so with m = min(2*klim/3 rounded up, la - 1):
           2m >= klim in both arms — high x high never matters. *)
        let m = min (((2 * klim) + 2) / 3) (la - 1) in
        if lb <= m then begin
          kara_low_acc ws wo dst doff a ao m b bo lb klim;
          kara_low_acc ws wo dst (doff + m) a (ao + m) (la - m) b bo lb
            (klim - m)
        end
        else begin
          kara_acc ws wo dst doff a ao m b bo m;
          kara_low_acc ws wo dst (doff + m) a (ao + m) (la - m) b bo m
            (klim - m);
          kara_low_acc ws wo dst (doff + m) b (bo + m) (lb - m) a ao m
            (klim - m)
        end
      end
    end
  end

let rec ksqr_acc ws wo dst doff a ao la =
  if la <= kara_cutoff then school_sqr_acc dst doff a ao la
  else begin
    let m = (la + 1) / 2 in
    let la1 = la - m in
    let l0 = (2 * m) - 1 in
    let l2 = (2 * la1) - 1 in
    let z0 = wo in
    let z2 = z0 + l0 in
    let z1 = z2 + l2 in
    let sa = z1 + l0 in
    let wo' = sa + m in
    Array.fill ws z0 (l0 + l2 + l0) 0;
    ksqr_acc ws wo' ws z0 a ao m;
    ksqr_acc ws wo' ws z2 a (ao + m) la1;
    split_sum ws sa a ao la m;
    ksqr_acc ws wo' ws z1 ws sa m;
    kara_merge dst doff m ws z0 l0 z1 l0 z2 l2
  end

(* Fresh product over slices, dispatching on size. *)
let mul_slices a ao la b bo lb =
  let out = Array.make (la + lb - 1) 0 in
  if min la lb > kara_cutoff then begin
    Ssr_obs.Metrics.incr m_karatsuba;
    kara_acc (get_ws (ws_bound (max la lb))) 0 out 0 a ao la b bo lb
  end
  else school_acc out 0 a ao la b bo lb;
  out

let mul a b =
  if is_zero a || is_zero b then zero
  else mul_slices a 0 (Array.length a) b 0 (Array.length b)

let scale c t = if c = 0 then zero else normalize (Array.map (Gf61.mul c) t)

let monic t =
  if is_zero t then invalid_arg "Poly.monic: zero polynomial";
  let lead = t.(Array.length t - 1) in
  if lead = 1 then t else scale (Gf61.inv lead) t

let divmod a b =
  if is_zero b then invalid_arg "Poly.divmod: division by zero polynomial";
  let db = degree b in
  let da = degree a in
  if da < db then (zero, a)
  else begin
    let rem = Array.copy a in
    let q = Array.make (da - db + 1) 0 in
    let lead_inv = Gf61.inv b.(db) in
    for i = da - db downto 0 do
      let c = fmul rem.(i + db) lead_inv in
      q.(i) <- c;
      if c <> 0 then
        for j = 0 to db do
          rem.(i + j) <- fmul_sub rem.(i + j) c b.(j)
        done
    done;
    (normalize q, normalize rem)
  end

(* ---- In-place kernels -------------------------------------------------

   The modular-arithmetic working set (powmod, mulmod, gcd) operates on
   raw int arrays viewed as the prefix [0, len): callers thread explicit
   lengths instead of re-normalizing, and every routine only ever reads
   below the length it is given, so stale cells beyond a prefix are
   harmless. This removes the fresh allocation per squaring/division that
   the naive mul-then-divmod composition pays — the old powmod allocated
   four arrays per exponent bit, with exponents of 61 bits. *)

(* prod[0, la+lb-1) <- a[0, la) * b[0, lb); returns the product length.
   [prod] must not alias the inputs. *)
let mul_into prod a la b lb =
  if la = 0 || lb = 0 then 0
  else begin
    Array.fill prod 0 (la + lb - 1) 0;
    if min la lb > kara_cutoff then begin
      Ssr_obs.Metrics.incr m_karatsuba;
      kara_acc (get_ws (ws_bound (max la lb))) 0 prod 0 a 0 la b 0 lb
    end
    else school_acc prod 0 a 0 la b 0 lb;
    la + lb - 1
  end

(* prod <- a^2 over the same dispatch. *)
let sqr_into prod a la =
  if la = 0 then 0
  else begin
    Array.fill prod 0 ((2 * la) - 1) 0;
    if la > kara_cutoff then begin
      Ssr_obs.Metrics.incr m_karatsuba;
      ksqr_acc (get_ws (ws_bound la)) 0 prod 0 a 0 la
    end
    else school_sqr_acc prod 0 a 0 la;
    (2 * la) - 1
  end

(* Reduce the prefix [0, len) of [buf] modulo [m] (degree [dm], leading
   inverse [lead_inv]) in place; returns the remainder length (<= dm,
   <= len). Positions [max rlen dm, len) are left zero. *)
let reduce_in_place buf len m dm lead_inv =
  for i = len - 1 downto dm do
    let c = fmul (Array.unsafe_get buf i) lead_inv in
    Array.unsafe_set buf i 0;
    if c <> 0 then begin
      let base = i - dm in
      for j = 0 to dm - 1 do
        let k = base + j in
        Array.unsafe_set buf k
          (fmul_sub (Array.unsafe_get buf k) c (Array.unsafe_get m j))
      done
    end
  done;
  top_len buf (min dm len)

(* ---- Newton-inverse (polynomial Barrett) reduction --------------------

   Long division re-derives the quotient digit by digit, O(dm) work per
   digit — O(dm^2) per reduction, re-paid on every squaring of a powmod
   ladder even though the modulus never changes. For a *fixed* modulus m
   (monic; scaling changes quotients but not remainders) we instead
   precompute I = rev(m)^{-1} mod x^dm once. For any a with
   deg a <= 2*dm - 1 the quotient of a by m is then *exact*:

     rev(q) = rev(a) * I  (mod x^(len a - dm))
     r      = a - q*m     (keep the low dm coefficients; the high part
                           cancels identically)

   i.e. two truncated multiplications — subquadratic via Karatsuba — in
   place of one long division. The inverse itself costs a few multiplies
   via Newton iteration and is amortized over the ~120 reductions of each
   powmod call tree.

   The reducer owns all scratch (the kernels' workspace plus the four
   reduction temporaries), so a reduction allocates nothing. That also
   means a reducer must not be shared across domains; each powmod call
   builds its own, so concurrent callers never share one. *)

type reducer = {
  red_m : int array; (* monic modulus, length red_dm + 1, top coeff 1 *)
  red_dm : int;
  red_inv : int array; (* rev(red_m)^{-1} mod x^red_dm, length red_dm *)
  s_ra : int array; (* rev(a) prefix, red_dm *)
  s_t : int array; (* quotient-series product, 2*red_dm *)
  s_q : int array; (* quotient, red_dm *)
  s_p : int array; (* q * m, 2*red_dm *)
}

(* Inverse of the power series f[0, flen) (f.(0) <> 0) mod x^k, by Newton
   iteration: v <- v + v*(1 - f*v), doubling the valid precision each
   round. Total cost O(M(k)). Runs once per reducer, so it keeps the
   simple allocate-per-round shape. *)
let series_inv f flen k =
  let v = Array.make k 0 in
  v.(0) <- Gf61.inv f.(0);
  (* [fl] below can reach flen = k + 1, so size the workspace for that. *)
  let ws = Array.make (ws_bound (max k flen)) 0 in
  let prec = ref 1 in
  while !prec < k do
    let np = min k (2 * !prec) in
    (* t = (f * v) mod x^np == 1 mod x^prec; e = its [prec, np) slice. *)
    let fl = min flen np in
    let t = Array.make (fl + !prec - 1) 0 in
    (if min fl !prec > kara_cutoff then kara_acc ws 0 t 0 f 0 fl v 0 !prec
     else school_acc t 0 f 0 fl v 0 !prec);
    let el = np - !prec in
    let e = Array.make el 0 in
    let tl = Array.length t in
    for i = 0 to el - 1 do
      let idx = !prec + i in
      if idx < tl then e.(i) <- t.(idx)
    done;
    (* v*(x^prec * e) mod x^np only touches [prec, np). *)
    let w = Array.make (el + !prec - 1) 0 in
    (if min el !prec > kara_cutoff then kara_acc ws 0 w 0 e 0 el v 0 !prec
     else school_acc w 0 e 0 el v 0 !prec);
    for i = 0 to el - 1 do
      v.(!prec + i) <- Gf61.neg w.(i)
    done;
    prec := np
  done;
  v

let reducer_of_monic m dm =
  let rev = Array.init (dm + 1) (fun i -> m.(dm - i)) in
  {
    red_m = m;
    red_dm = dm;
    red_inv = series_inv rev (dm + 1) dm;
    s_ra = Array.make dm 0;
    s_t = Array.make (2 * dm) 0;
    s_q = Array.make dm 0;
    s_p = Array.make (2 * dm) 0;
  }

(* Polynomials are immutable by module convention, so the reducer may
   alias an already-monic modulus. *)
let reducer_for modulus dm lead_inv =
  let m = if modulus.(dm) = 1 then modulus else Array.map (Gf61.mul lead_inv) modulus in
  reducer_of_monic m dm

let reducer modulus =
  let dm = degree modulus in
  if dm < 1 then invalid_arg "Poly.reducer: modulus must have degree >= 1";
  reducer_for modulus dm (Gf61.inv modulus.(dm))

(* In-place remainder of buf[0, len) modulo the reducer's modulus.
   Requires len <= 2*red_dm (the shape of every residue product); the
   quotient the truncated inverse produces is exact in that range. *)
let reduce_newton red buf len =
  let dm = red.red_dm in
  if len - 1 < dm then top_len buf len
  else begin
    Ssr_obs.Metrics.incr m_newton;
    let qlen = len - dm in
    (* Only the first qlen coefficients of rev(a) can reach the truncated
       product. *)
    let ra = red.s_ra in
    for i = 0 to qlen - 1 do
      Array.unsafe_set ra i (Array.unsafe_get buf (len - 1 - i))
    done;
    let il = if dm < qlen then dm else qlen in
    (* Only the low qlen coefficients of rev(a) * inv are the quotient;
       Mulders' short product skips the rest. *)
    let t = red.s_t in
    Array.fill t 0 (qlen + il - 1) 0;
    kara_low_acc (get_ws (ws_bound qlen)) 0 t 0 ra 0 qlen red.red_inv 0 il
      qlen;
    let q = red.s_q in
    for i = 0 to qlen - 1 do
      Array.unsafe_set q i (Array.unsafe_get t (qlen - 1 - i))
    done;
    let ml = dm + 1 in
    (* Likewise q*m is only needed below x^dm: everything above cancels
       against a exactly. *)
    let p = red.s_p in
    Array.fill p 0 (qlen + ml - 1) 0;
    kara_low_acc (get_ws (ws_bound ml)) 0 p 0 q 0 qlen red.red_m 0 ml dm;
    (* a - q*m: above dm the subtraction cancels identically (the quotient
       is exact), so only the low dm coefficients are materialized. *)
    for j = 0 to dm - 1 do
      Array.unsafe_set buf j (fsub (Array.unsafe_get buf j) (Array.unsafe_get p j))
    done;
    Array.fill buf dm (len - dm) 0;
    top_len buf dm
  end

let reduce red a =
  let la = Array.length a in
  let dm = red.red_dm in
  if la - 1 < dm then a
  else begin
    let buf = Array.copy a in
    let len = ref la in
    (* Inputs longer than the 2*dm window Newton covers are first walked
       down by plain division steps; each subtracts a multiple of m, so
       congruence is preserved. *)
    if !len > 2 * dm then begin
      for i = !len - 1 downto 2 * dm do
        let c = buf.(i) in
        buf.(i) <- 0;
        if c <> 0 then begin
          let base = i - dm in
          for j = 0 to dm - 1 do
            buf.(base + j) <- fmul_sub buf.(base + j) c red.red_m.(j)
          done
        end
      done;
      len := 2 * dm
    end;
    let rlen = reduce_newton red buf !len in
    if rlen = 0 then zero else Array.sub buf 0 rlen
  end

(* Below this modulus degree a Newton reducer never pays for itself inside
   one powmod: the division being replaced is already tiny. *)
let newton_min_dm = 16

let mulmod a b ~modulus =
  let dm = degree modulus in
  if dm < 1 then invalid_arg "Poly.mulmod: modulus must have degree >= 1";
  if is_zero a || is_zero b then zero
  else begin
    let la = Array.length a and lb = Array.length b in
    let prod = Array.make (la + lb - 1) 0 in
    let plen = mul_into prod a la b lb in
    (* A one-shot reduction: the Newton inverse would cost more than the
       single division it replaces, so this path stays on long division. *)
    let rlen = reduce_in_place prod plen modulus dm (Gf61.inv modulus.(dm)) in
    if rlen = 0 then zero else Array.sub prod 0 rlen
  end

let gcd a b =
  if is_zero a then if is_zero b then zero else monic b
  else if is_zero b then monic a
  else begin
    (* Euclid on two scratch buffers that swap roles each round; the only
       allocations are the two buffers and the final monic copy. The
       reduction leaves the tail of the old dividend zeroed, so the
       beyond-prefix-is-zero invariant both buffers start with is
       maintained across swaps. The divisor changes every round, so a
       fixed-modulus Newton inverse has nothing to amortize over here. *)
    let la = Array.length a and lb = Array.length b in
    let cap = max la lb in
    let u = ref (Array.make cap 0) and v = ref (Array.make cap 0) in
    Array.blit a 0 !u 0 la;
    Array.blit b 0 !v 0 lb;
    let ulen = ref la and vlen = ref lb in
    while !vlen > 0 do
      let dv = !vlen - 1 in
      let rlen = reduce_in_place !u !ulen !v dv (Gf61.inv !v.(dv)) in
      let tmp = !u in
      u := !v;
      v := tmp;
      ulen := !vlen;
      vlen := rlen
    done;
    monic (Array.sub !u 0 !ulen)
  end

let from_roots roots =
  (* Product tree keeps intermediate degrees balanced. *)
  let rec build lo hi =
    if hi - lo = 0 then one
    else if hi - lo = 1 then [| Gf61.neg roots.(lo); 1 |]
    else
      let mid = (lo + hi) / 2 in
      mul (build lo mid) (build mid hi)
  in
  build 0 (Array.length roots)

let eval_from_roots roots x =
  Array.fold_left (fun acc r -> fmul acc (fsub x r)) 1 roots

let powmod base k ~modulus =
  let dm = degree modulus in
  if dm < 1 then invalid_arg "Poly.powmod: modulus must have degree >= 1";
  if k = 0 then one
  else begin
    let lead_inv = Gf61.inv modulus.(dm) in
    let lb0 = Array.length base in
    let b0 = Array.make (max lb0 1) 0 in
    Array.blit base 0 b0 0 lb0;
    let lb = reduce_in_place b0 lb0 modulus dm lead_inv in
    if lb = 0 then zero
    else begin
      (* Left-to-right square-and-multiply over three preallocated
         buffers. The multiply step always uses the once-reduced original
         base — for the degree-1 bases of root finding (x, x + a) that
         step is O(dm), so the 61-bit exponents of {!Roots} cost 60
         squarings but essentially free multiplies. One Newton reducer is
         built for the whole ladder and reused by every iteration; the
         remainders it produces are identical to long division's, so the
         two paths are interchangeable bit for bit. *)
      let red = if dm >= newton_min_dm then Some (reducer_for modulus dm lead_inv) else None in
      let reduce_step prod plen =
        match red with
        | Some r when plen > dm -> reduce_newton r prod plen
        | _ -> reduce_in_place prod plen modulus dm lead_inv
      in
      let acc = Array.make dm 0 in
      Array.blit b0 0 acc 0 lb;
      let alen = ref lb in
      let prod = Array.make ((2 * dm) - 1) 0 in
      let nbits =
        let rec go n v = if v = 0 then n else go (n + 1) (v lsr 1) in
        go 0 k
      in
      for bit = nbits - 2 downto 0 do
        let plen = sqr_into prod acc !alen in
        alen := reduce_step prod plen;
        Array.blit prod 0 acc 0 !alen;
        if (k lsr bit) land 1 = 1 then begin
          let plen = mul_into prod acc !alen b0 lb in
          alen := reduce_step prod plen;
          Array.blit prod 0 acc 0 !alen
        end
      done;
      if !alen = 0 then zero else Array.sub acc 0 !alen
    end
  end

let derivative t =
  if Array.length t <= 1 then zero
  else normalize (Array.init (Array.length t - 1) (fun i -> Gf61.mul (Gf61.of_int (i + 1)) t.(i + 1)))
