module Iset = Ssr_util.Iset
module Buf = Ssr_util.Buf
module Codec = Ssr_util.Codec
module Prng = Ssr_util.Prng

type outcome = {
  union : Iset.t;
  alice_minus_bob : Iset.t;
  bob_minus_alice : Iset.t;
  stats : Comm.stats;
}

type error = [ `Decode_failure of Comm.stats ]

(* Alice's side of the return leg: B \ A as canonical elements, then the
   hash of Bob's union; her own union must hash to it. *)
let parse_return ~seed ~alice delivered =
  let r = Codec.reader delivered in
  match Iset.read_canonical r ((Bytes.length delivered / 8) - 1) with
  | None -> None
  | Some b_minus_a -> (
    let union = Iset.union alice b_minus_a in
    match Codec.int62 r with
    | Some h when Codec.at_end r && Set_recon.set_hash ~seed union = h -> Some (union, b_minus_a)
    | _ -> None)

let run_known_d ~comm ~seed ~d ~alice ~bob =
  (* First leg: one-way reconciliation, after which Bob holds both
     difference sides. *)
  match Set_recon.run_known_d ~comm ~seed ~d ~alice ~bob with
  | Error `Decode_failure -> Error `Decode_failure
  | Ok o -> (
    let bob_union = Iset.union bob o.Set_recon.alice_minus_bob in
    let payload =
      Bytes.cat (Iset.canonical_bytes o.Set_recon.bob_minus_alice) (Bytes.create 8)
    in
    Buf.set_int_le payload (Bytes.length payload - 8) (Set_recon.set_hash ~seed bob_union);
    match Comm.xfer comm Comm.B_to_a ~label:"b-minus-a" payload with
    | Error `Lost -> Error `Decode_failure
    | Ok delivered -> (
      match parse_return ~seed ~alice delivered with
      | None -> Error `Decode_failure
      | Some (union, bob_minus_alice) ->
        Ok
          {
            union;
            alice_minus_bob = o.Set_recon.alice_minus_bob;
            bob_minus_alice;
            stats = Comm.stats comm;
          }))

let run_unknown_d ~comm ~seed ~alice ~bob () =
  let payload = Comm.estimator ~seed (Iset.to_array bob) in
  match
    Comm.estimate ~seed (Iset.to_array alice) (Comm.xfer comm Comm.B_to_a ~label:"estimator" payload)
  with
  | None -> Error `Decode_failure
  | Some est -> run_known_d ~comm ~seed:(Prng.derive ~seed ~tag:0x2A) ~d:(max 4 (2 * est)) ~alice ~bob

let reconcile_known_d ~seed ~d ~alice ~bob () =
  Comm.run (fun comm -> run_known_d ~comm ~seed ~d ~alice ~bob)

let reconcile_unknown_d ~seed ~alice ~bob () =
  Comm.run (fun comm -> run_unknown_d ~comm ~seed ~alice ~bob ())
