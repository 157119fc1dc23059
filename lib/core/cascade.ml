module Iset = Ssr_util.Iset
module Bits = Ssr_util.Bits
module Prng = Ssr_util.Prng
module Buf = Ssr_util.Buf
module Codec = Ssr_util.Codec
module Par = Ssr_util.Par
module Hashing = Ssr_util.Hashing
module Iblt = Ssr_sketch.Iblt
module Comm = Ssr_setrecon.Comm

let m_retries = Ssr_obs.Metrics.counter "proto.cascade.retries"

type outcome = {
  delta : Parent.delta;
  levels : int;
  used_star : bool;
  recovered_per_level : int array;
  stats : Comm.stats;
}

type error = [ `Decode_failure of Comm.stats ]

let num_levels ~d ~h = max 1 (Bits.ceil_log2 (max 2 (min d h)))

(* Lean child tables: level-i failures are recovered at level i+1, so we do
   not pay the standalone-reliability slack of Algorithm 1 here. *)
let child_cells ~k i = max k ((2 * (1 lsl i)) + 2)

let level_config ~seed ~s_bound ~t ~k i : Encoding.config =
  {
    child_cells = child_cells ~k i;
    child_k = k;
    hash_bits = min 62 ((3 * Bits.ceil_log2 (max 2 (s_bound * (t + 1)))) + 10);
    seed = Prng.derive ~seed ~tag:(0xCA5C + i);
  }

let outer_params ~seed ~k ~key_len ~diff_bound i : Iblt.params =
  {
    cells = Iblt.recommended_cells ~k ~diff_bound;
    k;
    key_len;
    seed = Prng.derive ~seed ~tag:(0x07E0 + i);
  }

let stream_fp_tag = 0xF19C

(* Alice builds every level table, T* and her digest in one walk of her
   stream. Bob walks his at most twice: first for his level-1 table, a
   fingerprint -> positions index that maps negatives back to his children,
   and his digest; then, only once level 1 has decoded, for every
   higher-level table and T*. So a failed level-1 decode costs one walk of
   his stream. Levels >= 2 decode [alice_i - bob_i + db - da]: Bob deletes
   everything he can account for (XOR cancels, and add-then-delete of a
   shared child nets a zero count). The 8-byte guard carries
   [Parent.stream_hash], verified incrementally from the delta.
   [enc_seed] (default: the run seed) salts the per-level child-encoding
   configs only; outer and star tables stay salted by the per-attempt run
   seed. Resilient pins it so escalation rungs share cached encodings. *)
let run_stream ~comm ~seed ~enc_seed ~d ~d_hat ~s_bound ~u ~h ~k ~(alice : Parent.stream)
    ~(bob : Parent.stream) =
  let enc_seed = Option.value enc_seed ~default:seed in
  let t = num_levels ~d ~h in
  let use_star = h <= d in
  let cfgs = Array.init (t + 1) (fun i -> level_config ~seed:enc_seed ~s_bound ~t ~k i) in
  (* Outer difference bounds: 2*d_hat encodings at level 1; geometrically
     fewer unrecovered children at the higher levels (the paper's
     (9/4) d/2^i bound). *)
  let outer_bound i = if i = 1 then 2 * d_hat else max 4 (min d_hat ((3 * d) lsr i)) in
  let outers =
    Array.init (t + 1) (fun i ->
        if i = 0 then None
        else
          Some
            (outer_params ~seed ~k ~key_len:(Encoding.key_length cfgs.(i)) ~diff_bound:(outer_bound i) i))
  in
  let direct_cfg : Direct.config = { u; h } in
  let star_prm =
    if use_star then
      Some
        (outer_params ~seed ~k ~key_len:(Direct.key_length direct_cfg)
           ~diff_bound:(max 4 (Bits.ceil_div (3 * d) (max 1 h)))
           0x55)
    else None
  in
  let encoders = Array.map Encoding.encode cfgs in
  let direct = Direct.encode direct_cfg in
  (* Empty level tables from level [from] up (index = level), and T*. *)
  let fresh_tables ~from =
    ( Array.mapi (fun i prm -> if i < from then None else Option.map Iblt.create prm) outers,
      Option.map Iblt.create star_prm )
  in
  let land_chunk (tables, star) kids =
    Array.iteri
      (fun i -> Option.iter (fun tbl -> Iblt.add_all tbl (Par.map_array encoders.(i) kids)))
      tables;
    Option.iter (fun tbl -> Iblt.add_all tbl (Par.map_array direct kids)) star
  in
  (* ---- Alice: build and send every level table (one message). ---- *)
  let alice_tables, alice_star = fresh_tables ~from:1 in
  let alice_digest =
    Parent.stream_pass ~seed alice (fun _ kids -> land_chunk (alice_tables, alice_star) kids)
  in
  let hash_bytes = Bytes.create 8 in
  Buf.set_int_le hash_bytes 0 alice_digest;
  let body = function None -> Bytes.empty | Some tbl -> Iblt.body_bytes tbl in
  let payload =
    Buf.append_all (Array.to_list (Array.map body alice_tables) @ [ body alice_star; hash_bytes ])
  in
  match Comm.xfer comm Comm.A_to_b ~label:"cascade-tables+digest" payload with
  | Error `Lost -> Error `Decode_failure
  | Ok delivered -> (
  (* Bob re-slices the levels by their (public) parameters; a truncated or
     resized transmission fails here, totally. *)
  let r = Codec.reader delivered in
  let parse_ok = ref true in
  let parse_table = function
    | None -> None
    | Some prm -> (
      match Option.bind (Codec.take r (Iblt.body_length prm)) (Iblt.of_body_bytes_opt prm) with
      | None ->
        parse_ok := false;
        None
      | Some tbl -> Some tbl)
  in
  let alice_tables = Array.init (t + 1) (fun i -> parse_table outers.(i)) in
  let alice_star = parse_table star_prm in
  let alice_digest = match Codec.int62 r with Some g when Codec.at_end r -> g | _ -> -1 in
  if (not !parse_ok) || alice_digest < 0 then Error `Decode_failure
  else begin
  (* ---- Bob: level 1 identifies D_B and recovers what the tiny tables
     allow. ---- *)
  let fp_of = Hashing.hash_bytes (Hashing.make ~seed ~tag:stream_fp_tag) in
  let fp_tbl : (int, int list) Hashtbl.t = Hashtbl.create (2 * bob.Parent.length) in
  let bob_l1 = Iblt.create (Option.get outers.(1)) in
  let bob_digest =
    Parent.stream_pass ~seed bob (fun base kids ->
        let keys = Par.map_array encoders.(1) kids in
        Array.iteri
          (fun j key ->
            let f = fp_of key in
            let prev = Option.value (Hashtbl.find_opt fp_tbl f) ~default:[] in
            Hashtbl.replace fp_tbl f ((base + j) :: prev))
          keys;
        Iblt.add_all bob_l1 keys)
  in
  match Iblt.decode (Iblt.subtract (Option.get alice_tables.(1)) bob_l1) with
  | Error `Peel_stuck -> Error `Decode_failure
  | Ok { positives; negatives } -> (
    let child_of_neg neg =
      let candidates = Option.value (Hashtbl.find_opt fp_tbl (fp_of neg)) ~default:[] in
      List.find_map
        (fun i ->
          let c = bob.Parent.child i in
          if Bytes.equal (encoders.(1) c) neg then Some c else None)
        (List.rev candidates)
    in
    let db = List.filter_map child_of_neg negatives in
    if List.length db <> List.length negatives then Error `Decode_failure
    else begin
      let da = ref [] in
      let da_tbl = Iset.Tbl.create 64 in
      let per_level = Array.make (t + if use_star then 1 else 0) 0 in
      (* Record a recovered child at [slot] of [per_level] unless an earlier
         level already recovered it. *)
      let add_da slot c =
        if not (Iset.Tbl.mem da_tbl c) then begin
          Iset.Tbl.replace da_tbl c ();
          da := c :: !da;
          per_level.(slot) <- per_level.(slot) + 1
        end
      in
      (* Bob's second walk: every table above level 1, and T*. *)
      let bob_tables, bob_star = fresh_tables ~from:2 in
      if t >= 2 || use_star then
        ignore (Parent.stream_pass ~seed bob (fun _ kids -> land_chunk (bob_tables, bob_star) kids));
      (* Alice's still-unrecovered children at a level >= 2 or at T*: her
         table minus Bob's, with everything Bob can account for deleted. *)
      let leftovers alice_tbl bob_tbl encode =
        let table = Iblt.subtract alice_tbl bob_tbl in
        Iblt.add_all table (Array.of_list (List.map encode db));
        Iblt.delete_all table (Array.of_list (List.map encode !da));
        Iblt.decode table
      in
      let try_level i keys =
        List.iter
          (fun alice_key ->
            Option.iter (add_da (i - 1))
              (List.find_map (fun bob_child -> Encoding.try_recover cfgs.(i) ~alice_key ~bob_child) db))
          keys
      in
      try_level 1 positives;
      for i = 2 to t do
        match leftovers (Option.get alice_tables.(i)) (Option.get bob_tables.(i)) encoders.(i) with
        | Error `Peel_stuck -> () (* recovered at a later level or T* *)
        | Ok { positives; negatives = _ } -> try_level i positives
      done;
      (* T*: direct encodings as the final backstop. *)
      (match (alice_star, bob_star) with
      | Some star, Some bob_star -> (
        match leftovers star bob_star direct with
        | Error `Peel_stuck -> ()
        | Ok { positives; negatives = _ } ->
          List.iter (fun key -> Option.iter (add_da t) (Direct.decode direct_cfg key)) positives)
      | _ -> ());
      let delta : Parent.delta = { a_only = !da; b_only = db } in
      if Parent.delta_digest ~seed ~base:bob_digest delta = alice_digest then
        Ok
          {
            delta;
            levels = t;
            used_star = use_star;
            recovered_per_level = per_level;
            stats = Comm.stats comm;
          }
      else Error `Decode_failure
    end)
  end)

let reconcile_known ~seed ~d ~u ~h ?d_hat ?s_bound ?(k = 3) ~alice ~bob () =
  let s_bound = match s_bound with Some s -> s | None -> max 2 (Parent.cardinal bob) in
  let d_hat = match d_hat with Some dh -> dh | None -> min d s_bound in
  let comm = Comm.create () in
  match
    run_stream ~comm ~seed ~enc_seed:None ~d ~d_hat ~s_bound ~u ~h ~k
      ~alice:(Parent.stream_of_t alice) ~bob:(Parent.stream_of_t bob)
  with
  | Ok o -> Ok o
  | Error `Decode_failure -> Error (`Decode_failure (Comm.stats comm))

let reconcile_unknown ~seed ~u ~h ?s_bound ?(k = 3) ?(max_d = 1 lsl 22) ~alice ~bob () =
  let s_bound = match s_bound with Some s -> s | None -> max 2 (Parent.cardinal bob) in
  let alice = Parent.stream_of_t alice and bob = Parent.stream_of_t bob in
  let comm = Comm.create () in
  Comm.retry_doubling comm ~retries:m_retries ~d:1
    ~stop:(fun ~attempt:_ ~d -> d > max_d)
    (fun ~attempt:_ ~d ->
      run_stream ~comm
        ~seed:(Prng.derive ~seed ~tag:(0xCC0 + Bits.ceil_log2 (d + 1)))
        ~enc_seed:None ~d ~d_hat:(min d s_bound) ~s_bound ~u ~h ~k ~alice ~bob)
