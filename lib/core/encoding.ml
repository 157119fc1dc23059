module Iset = Ssr_util.Iset
module Hashing = Ssr_util.Hashing
module Bits = Ssr_util.Bits
module Buf = Ssr_util.Buf
module Iblt = Ssr_sketch.Iblt

type config = { child_cells : int; child_k : int; hash_bits : int; seed : int64 }

let child_seed_tag = 0xC11D
let child_hash_tag = 0xC4A5

let child_params cfg : Iblt.params =
  {
    cells = cfg.child_cells;
    k = cfg.child_k;
    key_len = 8;
    seed = Ssr_util.Prng.derive ~seed:cfg.seed ~tag:child_seed_tag;
  }

let child_hash cfg =
  if cfg.hash_bits < 1 || cfg.hash_bits > 62 then invalid_arg "Encoding: hash_bits out of range";
  let fn = Hashing.make ~seed:cfg.seed ~tag:child_hash_tag in
  fun child -> Hashing.truncate_bits (Iset.digest fn child) ~bits:cfg.hash_bits

let hash_len cfg = Bits.ceil_div cfg.hash_bits 8

let key_length cfg = Iblt.body_length (child_params cfg) + hash_len cfg

let cache_kind = 0

(* Staged: [encode cfg] derives the child-table parameters and the child
   hash function once, so a build pass that applies it to every child pays
   for them once per pass. *)
let encode cfg =
  let prm = child_params cfg and hash = child_hash cfg and hl = hash_len cfg in
  let encode_fresh child =
    let t = Iblt.create prm in
    Iset.iter (fun x -> Iblt.insert_int t x) child;
    let body = Iblt.body_bytes t in
    let h = hash child in
    let out = Bytes.create (Bytes.length body + hl) in
    Bytes.blit body 0 out 0 (Bytes.length body);
    for i = 0 to hl - 1 do
      Bytes.set out (Bytes.length body + i) (Char.chr ((h lsr (8 * i)) land 0xFF))
    done;
    out
  in
  fun child ->
    Enc_cache.find_or_add ~kind:cache_kind ~cells:cfg.child_cells ~k:cfg.child_k
      ~bits:cfg.hash_bits ~seed:cfg.seed ~child (fun () -> encode_fresh child)

(* Re-derive the child table from the (possibly cached) encoding: a hit
   turns the per-element hashing of a rebuild into one buffer copy. The
   body bytes are the table's exact memory layout, so this is bit-identical
   to inserting the child's elements into a fresh table whether or not the
   cache served the key. *)
let child_table cfg child =
  let key = encode cfg child in
  Iblt.of_body_bytes (child_params cfg) (Bytes.sub key 0 (Iblt.body_length (child_params cfg)))

let split_opt cfg key =
  if Bytes.length key <> key_length cfg then None
  else begin
    let body_len = Iblt.body_length (child_params cfg) in
    let body = Bytes.sub key 0 body_len in
    let hl = hash_len cfg in
    let h = ref 0 in
    for i = hl - 1 downto 0 do
      h := (!h lsl 8) lor Char.code (Bytes.get key (body_len + i))
    done;
    Some (body, !h)
  end

let split cfg key =
  match split_opt cfg key with
  | Some r -> r
  | None -> invalid_arg "Encoding.decode: wrong key length"

let decode_opt cfg key =
  match split_opt cfg key with
  | None -> None
  | Some (body, h) ->
    Option.map (fun t -> (t, h)) (Iblt.of_body_bytes_opt (child_params cfg) body)

let decode cfg key =
  let body, h = split cfg key in
  (Iblt.of_body_bytes (child_params cfg) body, h)

let hash_of_key cfg key = snd (split cfg key)

let try_recover cfg ~alice_key ~bob_child =
  (* Keys peeled out of an outer IBLT are untrusted bytes: parse totally. *)
  match decode_opt cfg alice_key with
  | None -> None
  | Some (alice_table, alice_hash) ->
  let diff = Iblt.subtract alice_table (child_table cfg bob_child) in
  match Iblt.decode_ints diff with
  | Error `Peel_stuck -> None
  | Ok (add, del) -> (
    match (Iset.of_list add, Iset.of_list del) with
    | exception Failure _ -> None
    | add, del ->
      (* The decoded sides must really be differences w.r.t. Bob's child. *)
      let applicable =
        Iset.fold (fun x ok -> ok && Iset.mem x bob_child) del true
        && Iset.fold (fun x ok -> ok && not (Iset.mem x bob_child)) add true
      in
      if not applicable then None
      else begin
        let candidate = Iset.apply_diff bob_child ~add ~del in
        if child_hash cfg candidate = alice_hash then Some candidate else None
      end)
