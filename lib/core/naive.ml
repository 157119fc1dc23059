module Iset = Ssr_util.Iset
module Hashing = Ssr_util.Hashing
module Prng = Ssr_util.Prng
module Iblt = Ssr_sketch.Iblt
module Comm = Ssr_setrecon.Comm

let k = 4

(* 62-bit stand-ins for a party's child sets, fed only to the estimator. *)
let child_ids ~seed (st : Parent.stream) =
  let id = Iset.digest (Hashing.make ~seed ~tag:0x4A1D) in
  Array.init st.Parent.length (fun i -> id (st.Parent.child i))

let params ~seed ~d_hat ~cfg : Iblt.params =
  let cells = Iblt.recommended_cells ~k ~diff_bound:(2 * d_hat) in
  { cells; k; key_len = Direct.key_length cfg; seed }

(* Each party walks its stream once, folding each child's encoding into
   its table through reused key buffers and building its
   [Parent.stream_hash] guard in the same pass. *)
let build ~seed ~cfg prm st =
  let table = Iblt.create prm in
  let fold = Direct.fold cfg in
  let digest = Parent.stream_pass ~seed st (fun _ kids -> fold table kids) in
  (table, digest)

let alice ~seed ~d_hat ~u ~h st =
  let cfg : Direct.config = { u; h } in
  let table, digest = build ~seed ~cfg (params ~seed ~d_hat ~cfg) st in
  Comm.Send ("naive-iblt+digest", Comm.guarded [| table |] ~guard:digest, Comm.Done ())

(* Direct encodings decode straight back to child sets, so Bob needs no
   index at all: the peeled positives/negatives ARE the delta, and he
   checks Alice's guard incrementally from it. *)
let finish ~seed ~cfg prm st got =
  match Comm.parse_guarded [| prm |] got with
  | None -> Error `Decode_failure
  | Some (received, alice_digest) -> (
    let bob_table, bob_digest = build ~seed ~cfg prm st in
    match Iblt.decode (Iblt.subtract received.(0) bob_table) with
    | Error `Peel_stuck -> Error `Decode_failure
    | Ok { positives; negatives } -> (
      let decode_all =
        let decode kids key = Option.map (fun c -> c :: kids) (Direct.decode cfg key) in
        List.fold_left (fun acc key -> Option.bind acc (fun kids -> decode kids key)) (Some [])
      in
      match (decode_all positives, decode_all negatives) with
      | Some a_only, Some b_only ->
        let delta : Parent.delta = { a_only; b_only } in
        if Parent.delta_digest ~seed ~base:bob_digest delta = alice_digest then Ok delta
        else Error `Decode_failure
      | _ -> Error `Decode_failure))

let bob ~seed ~d_hat ~u ~h st =
  let cfg : Direct.config = { u; h } in
  Comm.Recv (fun got -> Comm.Done (finish ~seed ~cfg (params ~seed ~d_hat ~cfg) st got))

(* Theorem 3.4: Bob opens with an estimator over his child ids; Alice
   sizes her table from it, and Bob reads the size off the length of what
   he is delivered. *)
let alice_unknown ~seed ~u ~h st =
  Comm.Recv
    (fun got ->
      match Comm.estimate ~seed (child_ids ~seed st) got with
      | None -> Comm.Done ()
      | Some est -> alice ~seed:(Prng.derive ~seed ~tag:2) ~d_hat:(max 2 est) ~u ~h st)

let bob_unknown ~seed ~u ~h st =
  let cfg : Direct.config = { u; h } in
  let seed' = Prng.derive ~seed ~tag:2 in
  Comm.Send
    ( "child-estimator",
      Comm.estimator ~seed (child_ids ~seed st),
      Comm.Recv
        (fun got ->
          Comm.Done
            (match Comm.sized (params ~seed:seed' ~d_hat:1 ~cfg) got with
            | None -> Error `Decode_failure
            | Some prm -> finish ~seed:seed' ~cfg prm st got)) )
