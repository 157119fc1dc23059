module Iset = Ssr_util.Iset
module Hashing = Ssr_util.Hashing
module Prng = Ssr_util.Prng
module Buf = Ssr_util.Buf
module Codec = Ssr_util.Codec
module Gf61 = Ssr_field.Gf61
module Iblt = Ssr_sketch.Iblt
module L0 = Ssr_sketch.L0_estimator
module Comm = Ssr_setrecon.Comm
module Cpi = Ssr_setrecon.Cpi_recon

type error = [ `Decode_failure of Comm.stats ]

type primitive = Auto | Always_iblt | Always_cpi

let child_hash_tag = 0x39A1
let content_hash_tag = 0x39A2

(* Default shape of the per-child estimators: small, since a child's
   difference with its match is at most h. *)
let default_child_shape : L0.shape = { levels = 14; reps = 2; buckets = 64; threshold = 8 }

let child_hash ~seed = Iset.digest (Hashing.make ~seed ~tag:child_hash_tag)

let content_hash ~seed child = Iset.digest (Hashing.make ~seed ~tag:content_hash_tag) child

type outcome = {
  delta : Parent.delta;
  matched_children : int;
  cpi_children : int;
  stats : Comm.stats;
}

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

(* The hash index holds positions instead of children, so only the
   O(d_hat) differing children are ever fetched. The round-1 guard carries
   [Parent.stream_hash], which Bob verifies incrementally from the delta. *)
let run_stream ~comm ~seed ~d ~d_hat ~k ~shape ~primitive ~(alice : Parent.stream)
    ~(bob : Parent.stream) =
  match (hash_index ~seed alice, hash_index ~seed bob) with
  | None, _ | _, None -> Error `Decode_failure
  | Some (alice_by_hash, alice_digest), Some (bob_by_hash, bob_digest) -> (
    (* ---- Round 1 (A -> B): IBLT of Alice's child hashes. ---- *)
    let hash_prm : Iblt.params =
      {
        cells = Iblt.recommended_cells ~k ~diff_bound:(2 * d_hat);
        k;
        key_len = 8;
        seed = Prng.derive ~seed ~tag:0x3A;
      }
    in
    let ta = Iblt.create hash_prm in
    Hashtbl.iter (fun h _ -> Iblt.insert_int ta h) alice_by_hash;
    let hash_bytes = Bytes.create 8 in
    Buf.set_int_le hash_bytes 0 alice_digest;
    match
      Comm.xfer comm Comm.A_to_b ~label:"hash-iblt+digest"
        (Bytes.cat (Iblt.body_bytes ta) hash_bytes)
    with
    | Error `Lost -> Error `Decode_failure
    | Ok delivered -> (
    let rd = Codec.reader delivered in
    let parsed =
      match (Codec.take rd (Iblt.body_length hash_prm), Codec.int62 rd) with
      | Some body, Some h when Codec.at_end rd ->
        Option.map (fun t -> (t, h)) (Iblt.of_body_bytes_opt hash_prm body)
      | _ -> None
    in
    match parsed with
    | None -> Error `Decode_failure
    | Some (ta, alice_digest) -> (
    let tb = Iblt.create hash_prm in
    Hashtbl.iter (fun h _ -> Iblt.insert_int tb h) bob_by_hash;
    match Iblt.decode_ints (Iblt.subtract ta tb) with
    | Error `Peel_stuck -> Error `Decode_failure
    | Ok (alice_diff_hashes, bob_diff_hashes) -> (
      let alice_diff_hashes = List.sort compare alice_diff_hashes in
      let bob_diff_hashes = List.sort compare bob_diff_hashes in
      let fetch st tbl h = Option.map st.Parent.child (Hashtbl.find_opt tbl h) in
      let bob_diff = List.filter_map (fetch bob bob_by_hash) bob_diff_hashes in
      let alice_diff = List.filter_map (fetch alice alice_by_hash) alice_diff_hashes in
      if
        List.length bob_diff <> List.length bob_diff_hashes
        || List.length alice_diff <> List.length alice_diff_hashes
      then Error `Decode_failure
      else begin
        (* ---- Round 2 (B -> A): TB plus one estimator per differing child
           of Bob's, in sorted-hash order. ---- *)
        let bob_diff_arr = Array.of_list bob_diff in
        let bob_estimators =
          Array.mapi
            (fun j child ->
              let e = L0.create ~seed:(Prng.derive ~seed ~tag:0xE57) ~shape () in
              L0.update_all e L0.S1 (Iset.to_array child);
              ignore j;
              e)
            bob_diff_arr
        in
        let est_payload =
          Buf.append_all
            (Iblt.body_bytes tb :: Array.to_list (Array.map L0.to_bytes bob_estimators))
        in
        match Comm.xfer comm Comm.B_to_a ~label:"hash-iblt+child-estimators" est_payload with
        | Error `Lost -> Error `Decode_failure
        | Ok delivered -> (
        (* ---- Alice decodes the same hash difference and matches her
           differing children against Bob's (delivered) estimators. ---- *)
        let est_seed = Prng.derive ~seed ~tag:0xE57 in
        let est_len = L0.size_bits (L0.create ~seed:est_seed ~shape ()) / 8 in
        let bob_estimators =
          let rd = Codec.reader delivered in
          match Codec.take rd (Iblt.body_length hash_prm) with
          | None -> None
          | Some _tb_body ->
            let n = Array.length bob_diff_arr in
            let out = Array.make n None in
            for j = 0 to n - 1 do
              out.(j) <-
                (match Codec.take rd est_len with
                | None -> None
                | Some b -> L0.of_bytes_opt ~seed:est_seed ~shape b)
            done;
            if Codec.at_end rd && Array.for_all Option.is_some out then
              Some (Array.map Option.get out)
            else None
        in
        match bob_estimators with
        | None -> Error `Decode_failure
        | Some bob_estimators -> (
        let matches =
          List.map
            (fun child ->
              let mine = L0.create ~seed:(Prng.derive ~seed ~tag:0xE57) ~shape () in
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
              (child, !best, !best_d))
            alice_diff
        in
        (* ---- Round 3 (A -> B): per-child payloads. ---- *)
        let d_total = max 1 d in
        let sqrt_d = int_of_float (Float.sqrt (float_of_int d_total)) in
        let cpi_count = ref 0 in
        let payloads =
          List.mapi
            (fun i (child, j, est) ->
              let bound = max 2 ((2 * est) + 2) in
              let chash = content_hash ~seed child in
              let use_iblt =
                match primitive with
                | Auto -> est >= sqrt_d
                | Always_iblt -> true
                | Always_cpi -> false
              in
              if j < 0 then `Unmatchable
              else if use_iblt then begin
                let prm : Iblt.params =
                  {
                    cells = Iblt.recommended_cells ~k ~diff_bound:bound;
                    k;
                    key_len = 8;
                    seed = Prng.derive ~seed ~tag:(0x100 + i);
                  }
                in
                let table = Iblt.create prm in
                Iblt.add_all_ints table (Iset.to_array child);
                `Iblt (j, bound, table, chash)
              end
              else begin
                incr cpi_count;
                let evals = Cpi.evaluations ~d:bound child in
                `Cpi (j, bound, evals, Iset.cardinal child, chash)
              end)
            matches
        in
        if List.exists (fun p -> p = `Unmatchable) payloads && alice_diff <> [] then Error `Decode_failure
        else begin
          (* Wire codec, one entry per differing child, in match order:
             kind byte (0 = IBLT, 1 = CPI) || match index (u32) || difference
             bound (u32) || content hash (8B) || kind-specific body. Bob
             re-derives the IBLT parameters from [bound] and the entry index,
             so the bodies carry no self-describing sizes an attacker could
             inflate. *)
          let buf = Buffer.create 256 in
          let add_u32 v =
            let b = Bytes.create 4 in
            Bytes.set_int32_le b 0 (Int32.of_int v);
            Buffer.add_bytes buf b
          in
          let add_i64 v =
            let b = Bytes.create 8 in
            Buf.set_int_le b 0 v;
            Buffer.add_bytes buf b
          in
          List.iter
            (function
              | `Unmatchable -> ()
              | `Iblt (j, bound, table, chash) ->
                Buffer.add_char buf '\000';
                add_u32 j;
                add_u32 bound;
                add_i64 chash;
                Buffer.add_bytes buf (Iblt.body_bytes table)
              | `Cpi (j, bound, evals, size_a, chash) ->
                Buffer.add_char buf '\001';
                add_u32 j;
                add_u32 bound;
                add_i64 chash;
                add_u32 size_a;
                Array.iter add_i64 evals)
            payloads;
          match Comm.xfer comm Comm.A_to_b ~label:"per-child-payloads" (Buffer.to_bytes buf) with
          | Error `Lost -> Error `Decode_failure
          | Ok delivered -> (
          (* ---- Bob repairs each differing child, working strictly from the
             delivered bytes. Match indices, bounds and field elements are all
             validated before use: after a faulty channel every field is
             untrusted, and parsing must stay total and allocation-safe. ---- *)
          let rd = Codec.reader delivered in
          let num_bob = Array.length bob_diff_arr in
          let parse_entry i =
            match (Codec.u8 rd, Codec.u32 rd, Codec.u32 rd, Codec.int62 rd) with
            | Some kind, Some j, Some bound, Some chash when j < num_bob && bound >= 2 -> (
              match kind with
              | 0 -> (
                let prm : Iblt.params =
                  {
                    cells = Iblt.recommended_cells ~k ~diff_bound:bound;
                    k;
                    key_len = 8;
                    seed = Prng.derive ~seed ~tag:(0x100 + i);
                  }
                in
                match Codec.take rd (Iblt.body_length prm) with
                | None -> None
                | Some body ->
                  Option.map (fun t -> `Iblt (j, t, chash)) (Iblt.of_body_bytes_opt prm body))
              | 1 -> (
                match Codec.u32 rd with
                | Some size_a ->
                  let nev = Cpi.num_evaluations ~d:bound in
                  if 8 * nev > Codec.remaining rd then None
                  else begin
                    let evals = Array.make nev 0 in
                    let ok = ref true in
                    for e = 0 to nev - 1 do
                      match Codec.int62 rd with
                      | Some v when v < Gf61.p -> evals.(e) <- v
                      | _ -> ok := false
                    done;
                    if !ok then Some (`Cpi (j, bound, evals, size_a, chash)) else None
                  end
                | None -> None)
              | _ -> None)
            | _ -> None
          in
          let n_entries = List.length alice_diff in
          let rec parse_all i acc =
            if i = n_entries then if Codec.at_end rd then Some (List.rev acc) else None
            else
              match parse_entry i with
              | None -> None
              | Some e -> parse_all (i + 1) (e :: acc)
          in
          match parse_all 0 [] with
          | None -> Error `Decode_failure
          | Some entries -> (
          let recover entry =
            match entry with
            | `Iblt (j, alice_table, chash) ->
              let mine = bob_diff_arr.(j) in
              let bob_table = Iblt.create (Iblt.params alice_table) in
              Iblt.add_all_ints bob_table (Iset.to_array mine);
              (match Iblt.decode_ints (Iblt.subtract alice_table bob_table) with
              | Error `Peel_stuck -> None
              | Ok (add, del) ->
                let candidate =
                  Iset.apply_diff mine ~add:(Iset.of_list add) ~del:(Iset.of_list del)
                in
                if content_hash ~seed candidate = chash then Some candidate else None)
            | `Cpi (j, bound, evals, size_a, chash) -> (
              let mine = bob_diff_arr.(j) in
              match Cpi.recover_set ~seed ~d:bound ~size_a ~evals ~bob:mine with
              | Some candidate when content_hash ~seed candidate = chash -> Some candidate
              | _ -> None)
          in
          let rec recover_all ps acc =
            match ps with
            | [] -> Some acc
            | p :: rest -> (
              match recover p with None -> None | Some c -> recover_all rest (c :: acc))
          in
          match recover_all entries [] with
          | None -> Error `Decode_failure
          | Some da ->
            let delta : Parent.delta = { a_only = da; b_only = bob_diff } in
            if Parent.delta_digest ~seed ~base:bob_digest delta = alice_digest then
              Ok
                {
                  delta;
                  matched_children = List.length payloads;
                  cpi_children = !cpi_count;
                  stats = Comm.stats comm;
                }
            else Error `Decode_failure))
        end))
      end))))

let reconcile_known ~seed ~d ?d_hat ?(k = 4) ?(primitive = Auto)
    ?(estimator_shape = default_child_shape) ~alice ~bob () =
  let d_hat =
    match d_hat with Some dh -> dh | None -> min d (max 2 (Parent.cardinal bob))
  in
  let comm = Comm.create () in
  match
    run_stream ~comm ~seed ~d ~d_hat ~k ~shape:estimator_shape ~primitive
      ~alice:(Parent.stream_of_t alice) ~bob:(Parent.stream_of_t bob)
  with
  | Ok o -> Ok o
  | Error `Decode_failure -> Error (`Decode_failure (Comm.stats comm))

let reconcile_unknown ~seed ?(k = 4) ?(estimator_shape = default_child_shape) ~alice ~bob () =
  let comm = Comm.create () in
  (* Round 0 (B -> A): estimator over Bob's child hashes sizes the exchange. *)
  let bob_est = L0.create ~seed ~shape:L0.default_shape () in
  let hash = child_hash ~seed in
  List.iter (fun c -> L0.update bob_est L0.S1 (hash c)) (Parent.children bob);
  match Comm.xfer comm Comm.B_to_a ~label:"dhat-estimator" (L0.to_bytes bob_est) with
  | Error `Lost -> Error (`Decode_failure (Comm.stats comm))
  | Ok delivered -> (
    match L0.of_bytes_opt ~seed ~shape:L0.default_shape delivered with
    | None -> Error (`Decode_failure (Comm.stats comm))
    | Some bob_est -> (
      let alice_est = L0.create ~seed ~shape:L0.default_shape () in
      List.iter (fun c -> L0.update alice_est L0.S2 (hash c)) (Parent.children alice);
      let est = L0.query (L0.merge bob_est alice_est) in
      let d_hat = max 2 est in
      (* The per-child estimators supply the element-level bounds, so d here
         only gates the IBLT/CPI threshold; a generous surrogate suffices. *)
      let d_surrogate = max 4 (d_hat * 4) in
      match
        run_stream ~comm ~seed:(Prng.derive ~seed ~tag:0x4B) ~d:d_surrogate ~d_hat ~k
          ~shape:estimator_shape ~primitive:Auto ~alice:(Parent.stream_of_t alice)
          ~bob:(Parent.stream_of_t bob)
      with
      | Ok o -> Ok o
      | Error `Decode_failure -> Error (`Decode_failure (Comm.stats comm))))
