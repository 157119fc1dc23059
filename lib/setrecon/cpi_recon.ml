module Iset = Ssr_util.Iset
module Prng = Ssr_util.Prng
module Buf = Ssr_util.Buf
module Codec = Ssr_util.Codec
module Gf61 = Ssr_field.Gf61
module Poly = Ssr_field.Poly
module Roots = Ssr_field.Roots
module Linalg = Ssr_field.Linalg

type outcome = {
  recovered : Iset.t;
  alice_minus_bob : Iset.t;
  bob_minus_alice : Iset.t;
  stats : Comm.stats;
}

type error = [ `Bound_too_small of Comm.stats ]

(* Element x is the field value x + 1; evaluation point i sits at the top of
   the field where no encoding can land. *)
let encode x =
  if x < 0 || x >= Gf61.p - 2 then invalid_arg "Cpi_recon: element out of field range";
  x + 1

let decode_root r = r - 1

let eval_point i = Gf61.p - 1 - i

let num_points ~d = d + 2

let encode_multiset pairs =
  List.concat_map
    (fun (x, k) ->
      if k <= 0 then invalid_arg "Cpi_recon: non-positive multiplicity";
      List.init k (fun _ -> encode x))
    pairs

let evals_of_roots ~d roots =
  let roots = Array.of_list roots in
  Array.init (num_points ~d) (fun i -> Poly.eval_from_roots roots (eval_point i))

let evaluations ~d s = evals_of_roots ~d (List.map encode (Iset.to_list s))

(* Interpolate the reduced rational function P/Q (monic, deg P - deg Q =
   delta, deg P + deg Q = dbar) from [dbar] of the shared evaluations, then
   strip the common factor that an underdetermined solve may introduce. *)
let interpolate ~dbar ~delta f =
  let ma = (dbar + delta) / 2 in
  let mb = (dbar - delta) / 2 in
  let unknowns = ma + mb in
  let row i =
    let z = eval_point i in
    let coeffs = Array.make unknowns 0 in
    let zp = ref 1 in
    for j = 0 to ma - 1 do
      coeffs.(j) <- !zp;
      zp := Gf61.mul !zp z
    done;
    let zq = ref 1 in
    for j = 0 to mb - 1 do
      coeffs.(ma + j) <- Gf61.neg (Gf61.mul f.(i) !zq);
      zq := Gf61.mul !zq z
    done;
    let rhs = Gf61.sub (Gf61.mul f.(i) (Gf61.pow z mb)) (Gf61.pow z ma) in
    (coeffs, rhs)
  in
  let rows = Array.init dbar row in
  let matrix = Array.map fst rows in
  let rhs = Array.map snd rows in
  match Linalg.solve matrix rhs with
  | Linalg.Inconsistent -> None
  | Linalg.Unique x | Linalg.Underdetermined x ->
    let pc = Array.append (Array.sub x 0 ma) [| 1 |] in
    let qc = Array.append (Array.sub x ma mb) [| 1 |] in
    let p = Poly.of_coeffs pc in
    let q = Poly.of_coeffs qc in
    let g = Poly.gcd p q in
    let p', rp = Poly.divmod p g in
    let q', rq = Poly.divmod q g in
    assert (Poly.is_zero rp && Poly.is_zero rq);
    Some (p', q')

(* Shared decode: given Alice's evaluations and sizes, recover the two
   difference multisets as (root, multiplicity) lists. *)
let recover_diffs ~rng ~d ~size_a ~size_b bob_roots alice_evals =
  let pts = num_points ~d in
  let delta = size_a - size_b in
  if abs delta > d + 1 then None
  else begin
    let dbar = if (d + 1 - abs delta) mod 2 = 0 then d + 1 else d in
    let bob_arr = Array.of_list bob_roots in
    (* chi_A(z_i) / chi_B(z_i) at every shared point: one Montgomery batch
       inversion over the denominators instead of a Fermat inversion per
       point. Evaluation points live above every element encoding, so no
       denominator vanishes (batch_inv would raise Division_by_zero
       exactly as per-point Gf61.div did). *)
    let denoms =
      Array.init pts (fun i -> Poly.eval_from_roots bob_arr (eval_point i))
    in
    let dinvs = Gf61.batch_inv denoms in
    let f = Array.init pts (fun i -> Gf61.mul alice_evals.(i) dinvs.(i)) in
    match interpolate ~dbar ~delta f with
    | None -> None
    | Some (p, q) -> (
      (* Spare evaluation points double as a correctness check on the
         interpolated rational function. *)
      let consistent =
        let rec check i =
          if i >= pts then true
          else
            let z = eval_point i in
            let qv = Poly.eval q z in
            Gf61.equal (Poly.eval p z) (Gf61.mul f.(i) qv) && check (i + 1)
        in
        check dbar
      in
      if not consistent then None
      else
        match (Roots.splits_completely rng p, Roots.splits_completely rng q) with
        | Some pr, Some qr -> Some (pr, qr)
        | _ -> None)
  end

let sorted_pairs tbl =
  Hashtbl.fold (fun x k acc -> if k > 0 then (x, k) :: acc else acc) tbl []
  |> List.sort compare

(* Bob's side on (element, multiplicity) pairs: apply the recovered
   difference to his counts. Every root must decode to an element, and the
   negative side must come out of counts he holds. *)
let recover_pairs ~rng ~d ~size_a ~evals bob =
  let bob_roots = encode_multiset bob in
  match recover_diffs ~rng ~d ~size_a ~size_b:(List.length bob_roots) bob_roots evals with
  | None -> None
  | Some (pr, qr) ->
    let counts = Hashtbl.create 64 in
    let count x = Option.value (Hashtbl.find_opt counts x) ~default:0 in
    List.iter (fun (x, k) -> Hashtbl.replace counts x (k + count x)) bob;
    let apply sign (r, m) =
      let x = decode_root r in
      let c = count x + (sign * m) in
      x >= 0 && c >= 0 && (Hashtbl.replace counts x c; true)
    in
    if List.for_all (apply (-1)) qr && List.for_all (apply 1) pr then Some (sorted_pairs counts)
    else None

let recover_set ~seed ~d ~size_a ~evals ~bob =
  let rng = Prng.create ~seed:(Prng.derive ~seed ~tag:0xC93) in
  if Array.length evals <> num_points ~d then invalid_arg "Cpi_recon.recover_set: wrong evaluation count";
  (* A set is a multiset whose recovered multiplicities are all 1. *)
  match recover_pairs ~rng ~d ~size_a ~evals (List.map (fun x -> (x, 1)) (Iset.to_list bob)) with
  | Some pairs when List.for_all (fun (_, k) -> k = 1) pairs && List.length pairs = size_a ->
    Some (Iset.of_list (List.map fst pairs))
  | _ -> None

let read_evaluations r ~d =
  let n = num_points ~d in
  if n > Codec.remaining r / 8 then None
  else begin
    let evals = Array.make n 0 in
    let rec go i =
      if i = n then Some evals
      else
        match Gf61.read r with
        | Some v ->
          evals.(i) <- v;
          go (i + 1)
        | None -> None
    in
    go 0
  end

(* The one message: Alice's evaluations, then her size (total multiplicity
   for multisets) as 8 little-endian bytes each. Bob gets back what he
   parses from the delivered bytes, or [None]. *)
let xfer_evals comm ~d evals ~size =
  let n = num_points ~d in
  let payload = Bytes.create (8 * (n + 1)) in
  Array.iteri (fun i v -> Buf.set_int_le payload (8 * i) v) evals;
  Buf.set_int_le payload (8 * n) size;
  match Comm.xfer comm Comm.A_to_b ~label:"cpi-evals+size" payload with
  | Error `Lost -> None
  | Ok delivered -> (
    let r = Codec.reader delivered in
    match read_evaluations r ~d with
    | None -> None
    | Some evals -> (
      match Codec.int62 r with Some size when Codec.at_end r -> Some (evals, size) | _ -> None))

let run_known_d ~comm ~seed ~d ~alice ~bob =
  match xfer_evals comm ~d (evaluations ~d alice) ~size:(Iset.cardinal alice) with
  | None -> Error `Bound_too_small
  | Some (evals, size_a) -> (
    match recover_set ~seed ~d ~size_a ~evals ~bob with
    | None -> Error `Bound_too_small
    | Some recovered ->
      Ok
        {
          recovered;
          alice_minus_bob = Iset.diff recovered bob;
          bob_minus_alice = Iset.diff bob recovered;
          stats = Comm.stats comm;
        })

let reconcile_known_d ~seed ~d ~alice ~bob () =
  let comm = Comm.create () in
  match run_known_d ~comm ~seed ~d ~alice ~bob with
  | Ok o -> Ok o
  | Error `Bound_too_small -> Error (`Bound_too_small (Comm.stats comm))

let run_multiset_known_d ~comm ~seed ~d ~alice ~bob =
  let rng = Prng.create ~seed:(Prng.derive ~seed ~tag:0xC92) in
  let alice_roots = encode_multiset alice in
  match xfer_evals comm ~d (evals_of_roots ~d alice_roots) ~size:(List.length alice_roots) with
  | None -> Error `Bound_too_small
  | Some (evals, size_a) -> (
    match recover_pairs ~rng ~d ~size_a ~evals bob with
    | None -> Error `Bound_too_small
    | Some pairs -> Ok (pairs, Comm.stats comm))

let reconcile_multiset_known_d ~seed ~d ~alice ~bob () =
  let comm = Comm.create () in
  match run_multiset_known_d ~comm ~seed ~d ~alice ~bob with
  | Ok o -> Ok o
  | Error `Bound_too_small -> Error (`Bound_too_small (Comm.stats comm))
