module Iset = Ssr_util.Iset
module Hashing = Ssr_util.Hashing
module Prng = Ssr_util.Prng
module Buf = Ssr_util.Buf
module Codec = Ssr_util.Codec
module Par = Ssr_util.Par
module Iblt = Ssr_sketch.Iblt
module L0 = Ssr_sketch.L0_estimator
module Comm = Ssr_setrecon.Comm

type outcome = { delta : Parent.delta; stats : Comm.stats }

type error = [ `Decode_failure of Comm.stats ]

let child_id_tag = 0x4A1D

(* 62-bit stand-in for a child set, used only to feed the estimator. *)
let child_id ~seed = Iset.digest (Hashing.make ~seed ~tag:child_id_tag)

(* Direct encodings decode straight back to child sets, so Bob needs no
   index at all: the peeled positives/negatives ARE the delta. Each party
   walks its stream once, building its table and its
   [Parent.stream_hash] guard together; Bob checks Alice's guard
   incrementally from the delta. *)
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
  let build st =
    let table = Iblt.create prm in
    let digest =
      Parent.stream_pass ~seed st (fun _ kids ->
          Iblt.add_all table (Par.map_array (Direct.encode cfg) kids))
    in
    (table, digest)
  in
  let table, alice_digest = build alice in
  let hash_bytes = Bytes.create 8 in
  Buf.set_int_le hash_bytes 0 alice_digest;
  let payload = Bytes.cat (Iblt.body_bytes table) hash_bytes in
  match Comm.xfer comm Comm.A_to_b ~label:"naive-iblt+digest" payload with
  | Error `Lost -> Error `Decode_failure
  | Ok delivered -> (
  let r = Codec.reader delivered in
  let parsed =
    match (Codec.take r (Iblt.body_length prm), Codec.int62 r) with
    | Some body, Some h when Codec.at_end r ->
      Option.map (fun t -> (t, h)) (Iblt.of_body_bytes_opt prm body)
    | _ -> None
  in
  match parsed with
  | None -> Error `Decode_failure
  | Some (table, alice_digest) -> (
  let bob_table, bob_digest = build bob in
  match Iblt.decode (Iblt.subtract table bob_table) with
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
    | _ -> Error `Decode_failure)))

let reconcile_known ~seed ~d_hat ~u ~h ?(k = 4) ~alice ~bob () =
  let comm = Comm.create () in
  match
    run_stream ~comm ~seed ~d_hat ~u ~h ~k ~alice:(Parent.stream_of_t alice)
      ~bob:(Parent.stream_of_t bob)
  with
  | Ok o -> Ok o
  | Error `Decode_failure -> Error (`Decode_failure (Comm.stats comm))

let reconcile_unknown ~seed ~u ~h ?(k = 4) ?estimator_shape ~alice ~bob () =
  let comm = Comm.create () in
  let bob_est = L0.create ~seed ?shape:estimator_shape () in
  let id = child_id ~seed in
  List.iter (fun c -> L0.update bob_est L0.S1 (id c)) (Parent.children bob);
  match Comm.xfer comm Comm.B_to_a ~label:"child-estimator" (L0.to_bytes bob_est) with
  | Error `Lost -> Error (`Decode_failure (Comm.stats comm))
  | Ok delivered -> (
    match L0.of_bytes_opt ~seed ?shape:estimator_shape delivered with
    | None -> Error (`Decode_failure (Comm.stats comm))
    | Some bob_est -> (
      let alice_est = L0.create ~seed ?shape:estimator_shape () in
      List.iter (fun c -> L0.update alice_est L0.S2 (id c)) (Parent.children alice);
      let est = L0.query (L0.merge bob_est alice_est) in
      let d_hat = max 2 est in
      match
        run_stream ~comm ~seed:(Prng.derive ~seed ~tag:2) ~d_hat ~u ~h ~k
          ~alice:(Parent.stream_of_t alice) ~bob:(Parent.stream_of_t bob)
      with
      | Ok o -> Ok o
      | Error `Decode_failure -> Error (`Decode_failure (Comm.stats comm))))
