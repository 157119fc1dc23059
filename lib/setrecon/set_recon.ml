module Iset = Ssr_util.Iset
module Hashing = Ssr_util.Hashing
module Prng = Ssr_util.Prng
module Iblt = Ssr_sketch.Iblt

let retries = Ssr_obs.Metrics.counter "proto.set.retries"

type outcome = {
  recovered : Iset.t;
  alice_minus_bob : Iset.t;
  bob_minus_alice : Iset.t;
  stats : Comm.stats;
}

type error = [ `Decode_failure of Comm.stats ]

let set_hash_tag = 0x5E7A

let set_hash ~seed s = Iset.digest (Hashing.make ~seed ~tag:set_hash_tag) s

let iblt_params ~seed ~d ~k : Iblt.params =
  { cells = Iblt.recommended_cells ~k ~diff_bound:d; k; key_len = 8; seed }

(* Core one-message exchange; [comm] lets callers embed this in a larger
   transcript (the unknown-d and doubling wrappers below, two-way
   reconciliation's first leg, and [lib/transport]'s retry ladder).
   Alice's table and whole-set hash travel as one guarded message, and
   Bob's side is computed from the delivered bytes, so an attached
   transport carries — and can damage — exactly what a deployment would
   put on the wire. *)
let run_known_d ~comm ~seed ~d ~k ~alice ~bob =
  let prm = iblt_params ~seed ~d ~k in
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

let reconcile_known_d ~seed ~d ?(k = 4) ~alice ~bob () =
  Comm.run (fun comm -> run_known_d ~comm ~seed ~d ~k ~alice ~bob)

let run_unknown_d ~comm ~seed ~k ?estimator_shape ~headroom ~alice ~bob () =
  let payload = Comm.estimator ?shape:estimator_shape ~seed (Iset.to_array bob) in
  match
    Comm.estimate ?shape:estimator_shape ~seed (Iset.to_array alice)
      (Comm.xfer comm Comm.B_to_a ~label:"estimator" payload)
  with
  | None -> Error `Decode_failure
  | Some est ->
    run_known_d ~comm ~seed:(Prng.derive ~seed ~tag:1) ~d:(max 4 (headroom * est)) ~k ~alice ~bob

let reconcile_unknown_d ~seed ?(k = 4) ?estimator_shape ?(headroom = 2) ~alice ~bob () =
  Comm.run (fun comm -> run_unknown_d ~comm ~seed ~k ?estimator_shape ~headroom ~alice ~bob ())

let reconcile_robust ~seed ?(k = 4) ?(initial_d = 4) ?(max_attempts = 16) ~alice ~bob () =
  Comm.run (fun comm ->
      Comm.retry_doubling comm ~retries ~d:initial_d
        ~stop:(fun ~attempt ~d:_ -> attempt >= max_attempts)
        (fun ~attempt ~d ->
          (* A fresh derived seed each attempt re-randomizes the hash
             functions, so a peeling failure is not repeated
             deterministically. *)
          run_known_d ~comm ~seed:(Prng.derive ~seed ~tag:(100 + attempt)) ~d ~k ~alice ~bob))
