module Hashing = Ssr_util.Hashing
module Iblt = Ssr_sketch.Iblt

type outcome = { recovered : Multiset.t; stats : Comm.stats }

type error = [ `Decode_failure of Comm.stats ]

let hash_tag = 0x3B5E

let multiset_hash ~seed m =
  Hashing.hash_bytes (Hashing.make ~seed ~tag:hash_tag) (Multiset.canonical_bytes m)

let key_len = 16

(* The constant number of IBLT hash functions (Corollary 2.2). *)
let k = 4

let run_known_d ~comm ~seed ~d ~alice ~bob =
  (* A multiset change alters at most two (element, count) pairs. *)
  let prm : Iblt.params =
    { cells = Iblt.recommended_cells ~k ~diff_bound:(2 * d); k; key_len; seed }
  in
  let table = Iblt.create prm in
  List.iter (Iblt.insert table) (Multiset.pair_keys alice ~key_len);
  let payload = Comm.guarded [| table |] ~guard:(multiset_hash ~seed alice) in
  match
    Comm.parse_guarded [| prm |] (Comm.xfer comm Comm.A_to_b ~label:"multiset-iblt+hash" payload)
  with
  | None -> Error `Decode_failure
  | Some (received, alice_hash) -> (
  (* Bob deletes his pairs from the parsed table in place: the same signed
     multiset as subtracting a table of his own. *)
  let table = received.(0) in
  List.iter (Iblt.delete table) (Multiset.pair_keys bob ~key_len);
  match Iblt.decode table with
  | Error `Peel_stuck -> Error `Decode_failure
  | Ok { positives; negatives } -> (
    (* Peeled keys are wire-derived; the total parser turns any corruption
       (including out-of-native-range words, which the raising parser would
       escalate to an uncaught [Failure]) into a detected decode failure. *)
    match (Multiset.of_pair_keys_opt negatives, Multiset.of_pair_keys_opt positives) with
    | None, _ | _, None -> Error `Decode_failure
    | Some to_remove, Some to_add ->
      (* Replace Bob's stale pairs by Alice's. *)
      let stale = Multiset.to_pairs to_remove in
      let without =
        List.fold_left (fun acc (x, c) -> Multiset.remove ~count:c x acc) bob stale
      in
      let consistent =
        List.for_all (fun (x, c) -> Multiset.multiplicity x bob = c) stale
        && List.for_all (fun (x, _) -> Multiset.multiplicity x without = 0) (Multiset.to_pairs to_add)
      in
      if not consistent then Error `Decode_failure
      else begin
        let recovered =
          List.fold_left (fun acc (x, c) -> Multiset.add ~count:c x acc) without
            (Multiset.to_pairs to_add)
        in
        if multiset_hash ~seed recovered = alice_hash then Ok { recovered; stats = Comm.stats comm }
        else Error `Decode_failure
      end))

let reconcile_known_d ~seed ~d ~alice ~bob () =
  Comm.run (fun comm -> run_known_d ~comm ~seed ~d ~alice ~bob)
