module Iset = Ssr_util.Iset
module Hashing = Ssr_util.Hashing
module Bits = Ssr_util.Bits
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

let child_table cfg child =
  let t = Iblt.create (child_params cfg) in
  Iset.iter (fun x -> Iblt.insert_int t x) child;
  t

(* Staged writer of [child table's packed store || child hash LE]:
   [filler cfg table child buf] builds the child's table in [table]
   (emptied first) and copies it into the body of [buf]. [filler cfg]
   derives the hash function once; [filler cfg table] hoists the insert
   closure, so each call after that allocates nothing. *)
let filler cfg =
  let hash = child_hash cfg and hl = hash_len cfg in
  let body_len = Iblt.body_length (child_params cfg) in
  fun table ->
    let insert x = Iblt.insert_int table x in
    fun child buf ->
      Iblt.clear table;
      Iset.iter insert child;
      Iblt.blit_body table buf 0;
      let h = hash child in
      for i = 0 to hl - 1 do
        Bytes.set buf (body_len + i) (Char.chr ((h lsr (8 * i)) land 0xFF))
      done

let encode cfg =
  let fill = filler cfg and prm = child_params cfg and len = key_length cfg in
  fun child ->
    let buf = Bytes.create len in
    fill (Iblt.create prm) child buf;
    buf

let encoder cfg =
  let fill = filler cfg (Iblt.create (child_params cfg)) and buf = Bytes.create (key_length cfg) in
  fun child ->
    fill child buf;
    buf

let fold ?memo cfg =
  let fill = filler cfg (Iblt.create (child_params cfg)) in
  Key_fold.make ~key_len:(key_length cfg)
    (match memo with
     | None ->
       fun buf child ->
         fill child buf;
         buf
     | Some m ->
       Enc_cache.find_or_fill
         (Enc_cache.family m ~cells:cfg.child_cells ~k:cfg.child_k ~bits:cfg.hash_bits ~seed:cfg.seed)
         fill)

let hash_of_key cfg =
  let len = key_length cfg and hl = hash_len cfg in
  fun key ->
    if Bytes.length key <> len then invalid_arg "Encoding.hash_of_key: wrong key length";
    let h = ref 0 in
    for i = len - 1 downto len - hl do
      h := (!h lsl 8) lor Char.code (Bytes.get key i)
    done;
    !h

let split_opt cfg key =
  if Bytes.length key <> key_length cfg then None
  else Some (Bytes.sub key 0 (Iblt.body_length (child_params cfg)), hash_of_key cfg key)

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

(* The pairing step for one (parsed Alice key, Bob child) pair. *)
let pair_parsed ~hash (alice_table, alice_hash) bob_child bob_table =
  let diff = Iblt.subtract alice_table bob_table in
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
        if hash candidate = alice_hash then Some candidate else None
      end)

(* Keys peeled out of an outer IBLT are untrusted bytes: parse totally. *)
let try_recover cfg ~alice_key ~bob_child =
  match decode_opt cfg alice_key with
  | None -> None
  | Some parsed -> pair_parsed ~hash:(child_hash cfg) parsed bob_child (child_table cfg bob_child)

let pairing cfg bob_children =
  let hash = child_hash cfg in
  let bob = List.map (fun c -> (c, lazy (child_table cfg c))) bob_children in
  fun alice_key ->
    match decode_opt cfg alice_key with
    | None -> None
    | Some parsed -> List.find_map (fun (c, t) -> pair_parsed ~hash parsed c (Lazy.force t)) bob
