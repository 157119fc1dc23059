module Iset = Ssr_util.Iset
module Hashing = Ssr_util.Hashing
module Prng = Ssr_util.Prng
module Iblt = Ssr_sketch.Iblt

type outcome = {
  recovered : Iset.t;
  alice_minus_bob : Iset.t;
  bob_minus_alice : Iset.t;
  stats : Comm.stats;
}

type error = [ `Decode_failure of Comm.stats ]

let set_hash_tag = 0x5E7A

let set_hash ~seed s = Iset.digest (Hashing.make ~seed ~tag:set_hash_tag) s

(* Corollary 2.2's constant number of IBLT hash functions. *)
let k = 4

(* The unknown-d route sizes the table for [headroom] times the estimate,
   absorbing the estimator's constant factor. *)
let headroom = 2

let iblt_params ~seed ~d : Iblt.params =
  { cells = Iblt.recommended_cells ~k ~diff_bound:d; k; key_len = 8; seed }

(* Core one-message exchange; [comm] lets callers embed this in a larger
   transcript (the unknown-d wrapper below, two-way
   reconciliation's first leg, and [lib/transport]'s retry ladder).
   Alice's table and whole-set hash travel as one guarded message, and
   Bob's side is computed from the delivered bytes, so an attached
   transport carries — and can damage — exactly what a deployment would
   put on the wire. *)
let run_known_d ~comm ~seed ~d ~alice ~bob =
  let prm = iblt_params ~seed ~d in
  let table = Iblt.create prm in
  Iblt.add_all_ints table (Iset.to_array alice);
  let payload = Comm.guarded [| table |] ~guard:(set_hash ~seed alice) in
  match Comm.parse_guarded [| prm |] (Comm.xfer comm Comm.A_to_b ~label:"iblt+hash" payload) with
  | None -> Error `Decode_failure
  | Some (received, alice_hash) -> (
    (* Deleting Bob's elements from the parsed table in place is the same
       signed multiset as building a second table and subtracting (insert
       and delete are one operation with opposite signs), but skips
       allocating and copying a full table. *)
    let table = received.(0) in
    Iblt.delete_all_ints table (Iset.to_array bob);
    match Iblt.decode_ints table with
    | Error `Peel_stuck -> Error `Decode_failure
    | Ok (pos, neg) ->
      let alice_minus_bob = Iset.of_list pos in
      let bob_minus_alice = Iset.of_list neg in
      let recovered = Iset.apply_diff bob ~add:alice_minus_bob ~del:bob_minus_alice in
      if set_hash ~seed recovered = alice_hash then
        Ok { recovered; alice_minus_bob; bob_minus_alice; stats = Comm.stats comm }
      else Error `Decode_failure)

let reconcile_known_d ~seed ~d ~alice ~bob () =
  Comm.run (fun comm -> run_known_d ~comm ~seed ~d ~alice ~bob)

let run_unknown_d ~comm ~seed ~alice ~bob () =
  let payload = Comm.estimator ~seed (Iset.to_array bob) in
  match
    Comm.estimate ~seed (Iset.to_array alice) (Comm.xfer comm Comm.B_to_a ~label:"estimator" payload)
  with
  | None -> Error `Decode_failure
  | Some est ->
    run_known_d ~comm ~seed:(Prng.derive ~seed ~tag:1) ~d:(max 4 (headroom * est)) ~alice ~bob

let reconcile_unknown_d ~seed ~alice ~bob () =
  Comm.run (fun comm -> run_unknown_d ~comm ~seed ~alice ~bob ())
