module Prng = Ssr_util.Prng
module Buf = Ssr_util.Buf
module Codec = Ssr_util.Codec
module Gf61 = Ssr_field.Gf61
module Poly = Ssr_field.Poly
module Graph = Ssr_graphs.Graph
module Iso = Ssr_graphs.Iso
module Comm = Ssr_setrecon.Comm

(* The canonical index as a polynomial: coefficient i is bit i of the
   canonical adjacency code. *)
let canonical_poly g =
  let code = Iso.canonical_code g in
  let bits = Iso.code_bits ~n:(Graph.n g) in
  Poly.of_coeffs (Array.init (max 1 bits) (fun i -> (code lsr i) land 1))

let shared_point ~seed = Gf61.random (Prng.create ~seed:(Prng.derive ~seed ~tag:0x9071))

(* Alice's one message: the point and her fingerprint there, one field
   word each. Bob works from what he parses, at the point he received. *)
let xfer_fingerprint comm r fp =
  let payload = Bytes.create 16 in
  Buf.set_int_le payload 0 r;
  Buf.set_int_le payload 8 fp;
  match Comm.xfer comm Comm.A_to_b ~label:"r+p_A(r)" payload with
  | Error `Lost -> None
  | Ok delivered -> (
    let rd = Codec.reader delivered in
    let r = Gf61.read rd in
    let fp = Gf61.read rd in
    match (r, fp) with Some r, Some fp when Codec.at_end rd -> Some (r, fp) | _ -> None)

let run_isomorphism_check ~comm ~seed a b =
  let r = shared_point ~seed in
  match xfer_fingerprint comm r (Poly.eval (canonical_poly a) r) with
  | None -> false
  | Some (r, pa) -> Gf61.equal pa (Poly.eval (canonical_poly b) r)

let isomorphism_check ~seed a b =
  let comm = Comm.create () in
  let same = run_isomorphism_check ~comm ~seed a b in
  (same, Comm.stats comm)

type error = [ `No_candidate of Comm.stats ]

let run_reconcile ~comm ~seed ~d ~alice ~bob =
  if Graph.n alice <> Graph.n bob then invalid_arg "Poly_protocol.reconcile: size mismatch";
  let r = shared_point ~seed in
  match xfer_fingerprint comm r (Poly.eval (canonical_poly alice) r) with
  | None -> None
  | Some (r, target) ->
    List.find_opt
      (fun g -> Gf61.equal (Poly.eval (canonical_poly g) r) target)
      (Iso.graphs_within bob ~d)

let reconcile ~seed ~d ~alice ~bob () =
  let comm = Comm.create () in
  match run_reconcile ~comm ~seed ~d ~alice ~bob with
  | Some g -> Ok (g, Comm.stats comm)
  | None -> Error (`No_candidate (Comm.stats comm))
