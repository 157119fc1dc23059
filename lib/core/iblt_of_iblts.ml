module Bits = Ssr_util.Bits
module Prng = Ssr_util.Prng
module Buf = Ssr_util.Buf
module Codec = Ssr_util.Codec
module Par = Ssr_util.Par
module Hashing = Ssr_util.Hashing
module Iblt = Ssr_sketch.Iblt
module Comm = Ssr_setrecon.Comm

let m_retries = Ssr_obs.Metrics.counter "proto.iblt-of-iblts.retries"

type error = [ `Decode_failure of Comm.stats ]

let hash_bits_for s_bound = min 62 ((3 * Bits.ceil_log2 (max 2 s_bound)) + 10)

let config ~seed ~d ~s_bound ~k : Encoding.config =
  {
    child_cells = Iblt.recommended_cells ~k ~diff_bound:d;
    child_k = k;
    hash_bits = hash_bits_for s_bound;
    seed;
  }

type outcome = { delta : Parent.delta; differing_pairs : int; stats : Comm.stats }

(* Fingerprint salt for mapping peeled-out negative keys back to Bob's
   child positions without rescanning the stream. *)
let stream_fp_tag = 0xF19B

(* Each party walks its stream once: the pass builds its outer table (and
   Bob's fingerprint index) and its [Parent.stream_hash] guard together.
   Bob verifies Alice's guard incrementally from the recovered delta. Both
   sides hold one chunk plus O(s) fingerprints at a time, never the parent
   itself. [enc_seed] (default: the run seed) salts the
   child-encoding config only; outer tables stay salted by the per-attempt
   run seed. Resilient pins it to the base seed so escalation rungs
   re-derive identical child-encoding configs and the encoding cache
   carries the work across attempts. *)
let run_stream ~comm ~seed ~enc_seed ~d ~d_hat ~s_bound ~k ~(alice : Parent.stream)
    ~(bob : Parent.stream) =
  let enc_seed = Option.value enc_seed ~default:seed in
  let cfg = config ~seed:enc_seed ~d ~s_bound ~k in
  let outer_prm : Iblt.params =
    {
      cells = Iblt.recommended_cells ~k ~diff_bound:(2 * d_hat);
      k;
      key_len = Encoding.key_length cfg;
      seed = Prng.derive ~seed ~tag:0x07E5;
    }
  in
  let encode = Encoding.encode cfg in
  let outer = Iblt.create outer_prm in
  let alice_digest =
    Parent.stream_pass ~seed alice (fun _ kids -> Iblt.add_all outer (Par.map_array encode kids))
  in
  let hash_bytes = Bytes.create 8 in
  Buf.set_int_le hash_bytes 0 alice_digest;
  let payload = Bytes.cat (Iblt.body_bytes outer) hash_bytes in
  match Comm.xfer comm Comm.A_to_b ~label:"outer-iblt+digest" payload with
  | Error `Lost -> Error `Decode_failure
  | Ok delivered -> (
  let r = Codec.reader delivered in
  let parsed =
    match (Codec.take r (Iblt.body_length outer_prm), Codec.int62 r) with
    | Some body, Some h when Codec.at_end r ->
      Option.map (fun t -> (t, h)) (Iblt.of_body_bytes_opt outer_prm body)
    | _ -> None
  in
  match parsed with
  | None -> Error `Decode_failure
  | Some (outer, alice_digest) -> (
  (* Bob: same pass, plus a fingerprint -> positions index so a differing
     key maps back to his child (verified by re-encoding it — a cache hit)
     instead of a linear rescan. *)
  let fp_of = Hashing.hash_bytes (Hashing.make ~seed ~tag:stream_fp_tag) in
  let fp_tbl : (int, int list) Hashtbl.t = Hashtbl.create (2 * bob.Parent.length) in
  let bob_outer = Iblt.create outer_prm in
  let bob_digest =
    Parent.stream_pass ~seed bob (fun base kids ->
        let keys = Par.map_array encode kids in
        Array.iteri
          (fun j key ->
            let f = fp_of key in
            let prev = Option.value (Hashtbl.find_opt fp_tbl f) ~default:[] in
            Hashtbl.replace fp_tbl f ((base + j) :: prev))
          keys;
        Iblt.add_all bob_outer keys)
  in
  match Iblt.decode (Iblt.subtract outer bob_outer) with
  | Error `Peel_stuck -> Error `Decode_failure
  | Ok { positives; negatives } -> (
    let child_of_neg neg =
      let candidates = Option.value (Hashtbl.find_opt fp_tbl (fp_of neg)) ~default:[] in
      List.find_map
        (fun i ->
          let c = bob.Parent.child i in
          if Bytes.equal (encode c) neg then Some c else None)
        (List.rev candidates)
    in
    let db = List.filter_map child_of_neg negatives in
    if List.length db <> List.length negatives then Error `Decode_failure
    else begin
      (* Pair each of Alice's differing child IBLTs with one of Bob's. *)
      let recover_one alice_key =
        List.find_map (fun bob_child -> Encoding.try_recover cfg ~alice_key ~bob_child) db
      in
      let rec recover_all keys acc =
        match keys with
        | [] -> Some acc
        | key :: rest -> (
          match recover_one key with None -> None | Some child -> recover_all rest (child :: acc))
      in
      match recover_all positives [] with
      | None -> Error `Decode_failure
      | Some da ->
        let delta : Parent.delta = { a_only = da; b_only = db } in
        if Parent.delta_digest ~seed ~base:bob_digest delta = alice_digest then
          Ok { delta; differing_pairs = List.length positives; stats = Comm.stats comm }
        else Error `Decode_failure
    end)))

let reconcile_known ~seed ~d ?d_hat ?s_bound ?(k = 4) ~alice ~bob () =
  let s_bound = match s_bound with Some s -> s | None -> max 2 (Parent.cardinal bob) in
  let d_hat = match d_hat with Some dh -> dh | None -> min d s_bound in
  let comm = Comm.create () in
  match
    run_stream ~comm ~seed ~enc_seed:None ~d ~d_hat ~s_bound ~k ~alice:(Parent.stream_of_t alice)
      ~bob:(Parent.stream_of_t bob)
  with
  | Ok o -> Ok o
  | Error `Decode_failure -> Error (`Decode_failure (Comm.stats comm))

let reconcile_unknown ~seed ?s_bound ?(k = 4) ?(max_d = 1 lsl 22) ~alice ~bob () =
  let s_bound = match s_bound with Some s -> s | None -> max 2 (Parent.cardinal bob) in
  let alice = Parent.stream_of_t alice and bob = Parent.stream_of_t bob in
  let comm = Comm.create () in
  Comm.retry_doubling comm ~retries:m_retries ~d:1
    ~stop:(fun ~attempt:_ ~d -> d > max_d)
    (fun ~attempt:_ ~d ->
      run_stream ~comm
        ~seed:(Prng.derive ~seed ~tag:(0xD0 + Bits.ceil_log2 (d + 1)))
        ~enc_seed:None ~d ~d_hat:(min d s_bound) ~s_bound ~k ~alice ~bob)
