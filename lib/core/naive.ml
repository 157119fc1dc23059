module Iset = Ssr_util.Iset
module Hashing = Ssr_util.Hashing
module Prng = Ssr_util.Prng
module Iblt = Ssr_sketch.Iblt
module Comm = Ssr_setrecon.Comm

type outcome = { delta : Parent.delta; stats : Comm.stats }

type error = [ `Decode_failure of Comm.stats ]

let child_id_tag = 0x4A1D

(* 62-bit stand-in for a child set, used only to feed the estimator. *)
let child_id ~seed = Iset.digest (Hashing.make ~seed ~tag:child_id_tag)

(* Direct encodings decode straight back to child sets, so Bob needs no
   index at all: the peeled positives/negatives ARE the delta. Each party
   walks its stream once, folding each child's encoding into its table
   through reused key buffers and building its [Parent.stream_hash]
   guard in the same pass; Bob checks Alice's guard incrementally from the
   delta. *)
let run_stream ~comm ~seed ~d_hat ~u ~h ~k ~(alice : Parent.stream) ~(bob : Parent.stream) =
  let cfg : Direct.config = { u; h } in
  let prm : Iblt.params =
    {
      cells = Iblt.recommended_cells ~k ~diff_bound:(2 * d_hat);
      k;
      key_len = Direct.key_length cfg;
      seed;
    }
  in
  let fold = Direct.fold cfg in
  let build st =
    let table = Iblt.create prm in
    let digest = Parent.stream_pass ~seed st (fun _ kids -> fold table kids) in
    (table, digest)
  in
  let table, alice_digest = build alice in
  match Comm.xfer_guarded comm ~label:"naive-iblt+digest" [| table |] ~guard:alice_digest with
  | None -> Error `Decode_failure
  | Some (received, alice_digest) -> (
  let bob_table, bob_digest = build bob in
  match Iblt.decode (Iblt.subtract received.(0) bob_table) with
  | Error `Peel_stuck -> Error `Decode_failure
  | Ok { positives; negatives } -> (
    let decode_all keys =
      List.fold_left
        (fun acc key ->
          match acc with
          | None -> None
          | Some kids -> (
            match Direct.decode cfg key with Some c -> Some (c :: kids) | None -> None))
        (Some []) keys
    in
    match (decode_all positives, decode_all negatives) with
    | Some alice_only, Some bob_only ->
      let delta : Parent.delta = { a_only = alice_only; b_only = bob_only } in
      if Parent.delta_digest ~seed ~base:bob_digest delta = alice_digest then
        Ok { delta; stats = Comm.stats comm }
      else Error `Decode_failure
    | _ -> Error `Decode_failure))

let reconcile_unknown ~seed ~u ~h ~alice ~bob () =
  let ids p = Array.of_list (List.map (child_id ~seed) (Parent.children p)) in
  Comm.run (fun comm ->
      match
        Comm.xfer_estimator comm ~label:"child-estimator" ~seed ~alice:(ids alice) ~bob:(ids bob)
      with
      | None -> Error `Decode_failure
      | Some est ->
        run_stream ~comm ~seed:(Prng.derive ~seed ~tag:2) ~d_hat:(max 2 est) ~u ~h ~k:4
          ~alice:(Parent.stream_of_t alice) ~bob:(Parent.stream_of_t bob))
