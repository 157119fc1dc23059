let x_poly = Poly.of_coeffs [| 0; 1 |]

(* Product of the distinct linear factors of [f]: gcd(f, x^p - x). *)
let linear_part f =
  let xp = Poly.powmod x_poly Gf61.p ~modulus:f in
  Poly.gcd f (Poly.sub xp x_poly)

(* Split a product of distinct linear factors into its roots.
   (x + a)^((p-1)/2) mod g is ±1 at each root shifted by a; gcd with
   (that - 1) separates the quadratic residues from the rest. One
   generator is threaded through both subtrees. The recovered roots are
   intrinsic to [g]; only the Las Vegas running time depends on the
   draws. *)
let rec split_roots rng g acc =
  match Poly.degree g with
  | 0 -> acc
  | 1 ->
    (* g = x + c  =>  root = -c (g is monic). *)
    Gf61.neg (Poly.coeff g 0) :: acc
  | dg ->
    let a = Gf61.random rng in
    let shifted = Poly.of_coeffs [| a; 1 |] in
    let h = Poly.powmod shifted ((Gf61.p - 1) / 2) ~modulus:g in
    let w = Poly.gcd g (Poly.sub h Poly.one) in
    let dw = Poly.degree w in
    if dw = 0 || dw = dg then split_roots rng g acc
    else
      let other, rem = Poly.divmod g w in
      assert (Poly.is_zero rem);
      split_roots rng w (split_roots rng other acc)

let distinct_roots rng f =
  if Poly.is_zero f then invalid_arg "Roots.distinct_roots: zero polynomial";
  if Poly.degree f = 0 then []
  else
    let g = linear_part (Poly.monic f) in
    if Poly.degree g = 0 then [] else List.sort compare (split_roots rng g [])

(* Strip (z - root) factors by synthetic division: one Horner pass gives
   quotient b_{i-1} = a_i + root*b_i and remainder a_0 + root*b_0, so each
   factor costs O(d) instead of Poly.divmod's O(d^2) long division. The
   quotient is the same polynomial long division produces (divmod by the
   monic z - root), which the differential test in test_field pins. *)
let multiplicity_of f root =
  let rec go coeffs count =
    let d = Array.length coeffs - 1 in
    if d < 1 then (count, Poly.of_coeffs coeffs)
    else begin
      let q = Array.make d 0 in
      q.(d - 1) <- coeffs.(d);
      for i = d - 1 downto 1 do
        q.(i - 1) <- Gf61.add coeffs.(i) (Gf61.mul root q.(i))
      done;
      let rem = Gf61.add coeffs.(0) (Gf61.mul root q.(0)) in
      if Gf61.equal rem Gf61.zero then go q (count + 1)
      else (count, Poly.of_coeffs coeffs)
    end
  in
  go (Poly.coeffs f) 0

let roots_with_multiplicity rng f =
  let roots = distinct_roots rng f in
  let remaining = ref (Poly.monic f) in
  let out =
    List.map
      (fun root ->
        let count, rest = multiplicity_of !remaining root in
        remaining := rest;
        (root, count))
      roots
  in
  List.sort compare out

let splits_completely rng f =
  if Poly.is_zero f then None
  else if Poly.degree f = 0 then Some []
  else
    let factors = roots_with_multiplicity rng f in
    let total = List.fold_left (fun acc (_, m) -> acc + m) 0 factors in
    if total = Poly.degree f then Some factors else None
