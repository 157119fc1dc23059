module Iset = Ssr_util.Iset
module Hashing = Ssr_util.Hashing
module Prng = Ssr_util.Prng
module Buf = Ssr_util.Buf
module Codec = Ssr_util.Codec
module Iblt = Ssr_sketch.Iblt
module L0 = Ssr_sketch.L0_estimator
module Comm = Ssr_setrecon.Comm
module Cpi = Ssr_setrecon.Cpi_recon

type primitive = Auto | Always_iblt | Always_cpi

let k = 4
let child_hash_tag = 0x39A1
let content_hash_tag = 0x39A2

(* Shape of the per-child estimators: small, since a child's difference
   with its match is at most h. *)
let child_shape : L0.shape = { levels = 14; reps = 2; buckets = 64; threshold = 8 }

let child_hash ~seed = Iset.digest (Hashing.make ~seed ~tag:child_hash_tag)

let content_hash ~seed child = Iset.digest (Hashing.make ~seed ~tag:content_hash_tag) child

let child_estimator ~seed = L0.create ~seed:(Prng.derive ~seed ~tag:0xE57) ~shape:child_shape ()

(* Round 1's hash table, for 2 [d_hat] differing child hashes. *)
let hash_params ~seed ~d_hat : Iblt.params =
  let cells = Iblt.recommended_cells ~k ~diff_bound:(2 * d_hat) in
  { cells; k; key_len = 8; seed = Prng.derive ~seed ~tag:0x3A }

(* Round 3's table for the [i]-th differing child: Bob re-derives it from
   the bound on the wire and the entry index. *)
let child_params ~seed ~bound i : Iblt.params =
  let cells = Iblt.recommended_cells ~k ~diff_bound:bound in
  { cells; k; key_len = 8; seed = Prng.derive ~seed ~tag:(0x100 + i) }

(* Hash -> position index (O(s) ints, never the children themselves) and
   the party's [Parent.stream_hash], from one walk of its stream.
   Collisions among one party's own children are a 1/poly failure we
   simply report. *)
let hash_index ~seed (st : Parent.stream) =
  let tbl = Hashtbl.create (2 * st.Parent.length) in
  let ok = ref true in
  let hash = child_hash ~seed in
  let digest =
    Parent.stream_pass ~seed st (fun base kids ->
        Array.iteri
          (fun j c ->
            let h = hash c in
            if Hashtbl.mem tbl h then ok := false else Hashtbl.add tbl h (base + j))
          kids)
  in
  if !ok then Some (tbl, digest) else None

let hash_table prm by_hash =
  let t = Iblt.create prm in
  Hashtbl.iter (fun h _ -> Iblt.insert_int t h) by_hash;
  t

(* Only the O(d_hat) differing children are fetched, in sorted-hash order. *)
let fetch_all (st : Parent.stream) by_hash hashes =
  let hashes = List.sort compare hashes in
  let fetch h = Option.map st.Parent.child (Hashtbl.find_opt by_hash h) in
  let kids = List.filter_map fetch hashes in
  if List.length kids = List.length hashes then Some kids else None

(* Alice decodes her own table minus the TB delivered in round 2: that
   names her differing children and how many of Bob's estimators follow
   it. *)
let alice_view ~seed ~prm ~ta ~by_hash st delivered =
  let est_len = L0.size_bits (child_estimator ~seed) / 8 in
  let rd = Codec.reader delivered in
  match Option.bind (Codec.take rd (Iblt.body_length prm)) (Iblt.of_body_bytes_opt prm) with
  | None -> None
  | Some tb -> (
    match Iblt.decode_ints (Iblt.subtract ta tb) with
    | Error `Peel_stuck -> None
    | Ok (alice_diff_hashes, bob_only_hashes) -> (
      let n = List.length bob_only_hashes in
      match fetch_all st by_hash alice_diff_hashes with
      | Some alice_diff when Codec.remaining rd = n * est_len ->
        let ests =
          Array.init n (fun _ ->
              Option.bind (Codec.take rd est_len)
                (L0.of_bytes_opt ~seed:(Prng.derive ~seed ~tag:0xE57) ~shape:child_shape))
        in
        if Array.for_all Option.is_some ests then Some (alice_diff, Array.map Option.get ests)
        else None
      | _ -> None))

(* Round 3: Alice matches each differing child to Bob's most similar one
   by merging estimators and picks its primitive. Wire codec, one entry per
   differing child, in match order: kind byte (0 = IBLT, 1 = CPI) || match
   index (u32) || difference bound (u32) || content hash (8B) ||
   kind-specific body. The bodies carry no self-describing sizes an
   attacker could inflate. The result is the payload and how many entries
   used CPI, or [None] when a child has no match. *)
let round3 ~seed ~d ~primitive alice_diff bob_estimators =
  let sqrt_d = int_of_float (Float.sqrt (float_of_int (max 1 d))) in
  let buf = Buffer.create 256 in
  let add_u32 v = Buffer.add_int32_le buf (Int32.of_int v) in
  let add_i64 v = Buffer.add_int64_le buf (Int64.of_int v) in
  let entry i child =
    let mine = child_estimator ~seed in
    L0.update_all mine L0.S2 (Iset.to_array child);
    let best = ref (-1) and best_d = ref max_int in
    Array.iteri
      (fun j be ->
        let est = L0.query (L0.merge be mine) in
        if est < !best_d then begin
          best_d := est;
          best := j
        end)
      bob_estimators;
    if !best < 0 then None
    else begin
      let bound = max 2 ((2 * !best_d) + 2) in
      let use_iblt =
        match primitive with Auto -> !best_d >= sqrt_d | Always_iblt -> true | Always_cpi -> false
      in
      Buffer.add_char buf (if use_iblt then '\000' else '\001');
      add_u32 !best;
      add_u32 bound;
      add_i64 (content_hash ~seed child);
      if use_iblt then begin
        let table = Iblt.create (child_params ~seed ~bound i) in
        Iblt.add_all_ints table (Iset.to_array child);
        Buffer.add_bytes buf (Iblt.body_bytes table);
        Some 0
      end
      else begin
        add_u32 (Iset.cardinal child);
        Array.iter add_i64 (Cpi.evaluations ~d:bound child);
        Some 1
      end
    end
  in
  let rec go i cpi = function
    | [] -> Some (Buffer.to_bytes buf, cpi)
    | child :: rest -> (
      match entry i child with None -> None | Some c -> go (i + 1) (cpi + c) rest)
  in
  go 0 0 alice_diff

let alice ~seed ~d ~d_hat ~primitive st =
  match hash_index ~seed st with
  | None -> Comm.Done 0
  | Some (by_hash, digest) ->
    let prm = hash_params ~seed ~d_hat in
    let ta = hash_table prm by_hash in
    Comm.Send
      ( "hash-iblt+digest",
        Comm.guarded [| ta |] ~guard:digest,
        Comm.Recv
          (fun got ->
            match
              Option.bind (Result.to_option got) (alice_view ~seed ~prm ~ta ~by_hash st)
            with
            | None -> Comm.Done 0
            | Some (alice_diff, bob_estimators) -> (
              match round3 ~seed ~d ~primitive alice_diff bob_estimators with
              | None -> Comm.Done 0
              | Some (payload, cpi) -> Comm.Send ("per-child-payloads", payload, Comm.Done cpi))) )

(* Bob repairs each differing child, working strictly from the delivered
   round-3 bytes. Match indices, bounds and field elements are all
   validated before use: after a faulty channel every field is untrusted,
   and parsing must stay total and allocation-safe. *)
let repair ~seed ~entries:n_entries bob_diff delivered =
  let rd = Codec.reader delivered in
  let bob_diff = Array.of_list bob_diff in
  let parse_entry i =
    match (Codec.u8 rd, Codec.u32 rd, Codec.u32 rd, Codec.int62 rd) with
    | Some 0, Some j, Some bound, Some chash when j < Array.length bob_diff && bound >= 2 ->
      let prm = child_params ~seed ~bound i in
      Option.map
        (fun t -> `Iblt (j, t, chash))
        (Option.bind (Codec.take rd (Iblt.body_length prm)) (Iblt.of_body_bytes_opt prm))
    | Some 1, Some j, Some bound, Some chash when j < Array.length bob_diff && bound >= 2 ->
      Option.bind (Codec.u32 rd) (fun size_a ->
          Option.map
            (fun evals -> `Cpi (j, bound, evals, size_a, chash))
            (Cpi.read_evaluations rd ~d:bound))
    | _ -> None
  in
  let recover = function
    | `Iblt (j, alice_table, chash) -> (
      let mine = bob_diff.(j) in
      let bob_table = Iblt.create (Iblt.params alice_table) in
      Iblt.add_all_ints bob_table (Iset.to_array mine);
      match Iblt.decode_ints (Iblt.subtract alice_table bob_table) with
      | Error `Peel_stuck -> None
      | Ok (add, del) ->
        let candidate = Iset.apply_diff mine ~add:(Iset.of_list add) ~del:(Iset.of_list del) in
        if content_hash ~seed candidate = chash then Some candidate else None)
    | `Cpi (j, bound, evals, size_a, chash) -> (
      match Cpi.recover_set ~seed ~d:bound ~size_a ~evals ~bob:bob_diff.(j) with
      | Some candidate when content_hash ~seed candidate = chash -> Some candidate
      | _ -> None)
  in
  let rec parse_all i acc =
    if i = n_entries then if Codec.at_end rd then Some (List.rev acc) else None
    else match parse_entry i with None -> None | Some e -> parse_all (i + 1) (e :: acc)
  in
  Option.bind (parse_all 0 [])
    (List.fold_left
       (fun acc e -> Option.bind acc (fun kids -> Option.map (fun c -> c :: kids) (recover e)))
       (Some []))

(* Bob's rounds, from the delivered round-1 bytes parsed by [prm]: he
   decodes Alice's hash table minus his own, replies with TB plus one
   estimator per differing child of his (sorted-hash order), and repairs
   from round 3. The round-1 guard carries [Parent.stream_hash], verified
   incrementally from the delta. *)
let bob_rounds ~seed prm st got =
  let fail = Comm.Done (Error `Decode_failure) in
  match Comm.parse_guarded [| prm |] got with
  | None -> fail
  | Some (received, alice_digest) -> (
    match hash_index ~seed st with
    | None -> fail
    | Some (by_hash, bob_digest) -> (
      let tb = hash_table prm by_hash in
      match Iblt.decode_ints (Iblt.subtract received.(0) tb) with
      | Error `Peel_stuck -> fail
      | Ok (alice_only_hashes, bob_diff_hashes) -> (
        match fetch_all st by_hash bob_diff_hashes with
        | None -> fail
        | Some bob_diff ->
          let estimators =
            List.map
              (fun child ->
                let e = child_estimator ~seed in
                L0.update_all e L0.S1 (Iset.to_array child);
                L0.to_bytes e)
              bob_diff
          in
          let finish delivered =
            match repair ~seed ~entries:(List.length alice_only_hashes) bob_diff delivered with
            | None -> Error `Decode_failure
            | Some a_only ->
              let delta : Parent.delta = { a_only; b_only = bob_diff } in
              if Parent.delta_digest ~seed ~base:bob_digest delta = alice_digest then Ok delta
              else Error `Decode_failure
          in
          Comm.Send
            ( "hash-iblt+child-estimators",
              Buf.append_all (Iblt.body_bytes tb :: estimators),
              Comm.Recv
                (fun got ->
                  Comm.Done
                    (match got with Error `Lost -> Error `Decode_failure | Ok b -> finish b)) ))))

let bob ~seed ~d_hat st = Comm.Recv (bob_rounds ~seed (hash_params ~seed ~d_hat) st)

let child_hashes ~seed (st : Parent.stream) =
  Array.init st.Parent.length (fun i -> child_hash ~seed (st.Parent.child i))

(* Theorem 3.10's leading round: Bob's estimator over his child hashes
   sizes the exchange. The per-child estimators supply the element-level
   bounds, so Alice's d only gates the IBLT/CPI threshold, and a generous
   surrogate suffices; Bob reads the table size off the delivered
   length. *)
let alice_unknown ~seed st =
  Comm.Recv
    (fun got ->
      match Comm.estimate ~seed (child_hashes ~seed st) got with
      | None -> Comm.Done 0
      | Some est ->
        let d_hat = max 2 est in
        alice ~seed:(Prng.derive ~seed ~tag:0x4B) ~d:(max 4 (d_hat * 4)) ~d_hat ~primitive:Auto st)

let bob_unknown ~seed st =
  let seed' = Prng.derive ~seed ~tag:0x4B in
  Comm.Send
    ( "dhat-estimator",
      Comm.estimator ~seed (child_hashes ~seed st),
      Comm.Recv
        (fun got ->
          match Comm.sized (hash_params ~seed:seed' ~d_hat:1) got with
          | None -> Comm.Done (Error `Decode_failure)
          | Some prm -> bob_rounds ~seed:seed' prm st got) )
