module Iset = Ssr_util.Iset
module Bits = Ssr_util.Bits
module Prng = Ssr_util.Prng
module Iblt = Ssr_sketch.Iblt
module Comm = Ssr_setrecon.Comm

type level = { enc : Encoding.config; outer : Iblt.params }

type plan = { label : string; per_level : level array; star : (Direct.config * Iblt.params) option }

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

let plan ~seed ~enc_seed ~d ~d_hat ~s_bound ~u ~h ~k =
  let t = num_levels ~d ~h in
  (* Outer difference bounds: 2*d_hat encodings at level 1; geometrically
     fewer unrecovered children at the higher levels (the paper's
     (9/4) d/2^i bound). *)
  let outer_bound i = if i = 1 then 2 * d_hat else max 4 (min d_hat ((3 * d) lsr i)) in
  let level i =
    let enc = level_config ~seed:enc_seed ~s_bound ~t ~k i in
    let key_len = Encoding.key_length enc in
    { enc; outer = outer_params ~seed ~k ~key_len ~diff_bound:(outer_bound i) i }
  in
  let direct : Direct.config = { u; h } in
  {
    label = "cascade-tables+digest";
    per_level = Array.init t (fun i -> level (i + 1));
    star =
      (if h <= d then
         Some
           ( direct,
             outer_params ~seed ~k ~key_len:(Direct.key_length direct)
               ~diff_bound:(max 4 (Bits.ceil_div (3 * d) (max 1 h)))
               0x55 )
       else None);
  }

(* One outer table of a plan, in wire order: how a chunk of children lands
   in it, how Bob re-encodes one child he can account for (into one reused
   key buffer, so each key is compared or inserted before the next), and
   how the keys peeled out of it recover Alice's children given Bob's
   differing ones. *)
type slot = {
  prm : Iblt.params;
  fold : Iblt.t -> Iset.t array -> unit;
  encode : Iset.t -> Bytes.t;
  recover : Iset.t list -> Bytes.t -> Iset.t option;
}

let slots ?memo plan =
  Array.append
    (Array.map
       (fun l ->
         {
           prm = l.outer;
           fold = Encoding.fold ?memo l.enc;
           encode = Encoding.encoder l.enc;
           recover = Encoding.pairing l.enc;
         })
       plan.per_level)
    (match plan.star with
    | None -> [||]
    | Some (cfg, prm) ->
      let recover _ = Direct.decode cfg in
      [| { prm; fold = Direct.fold cfg; encode = Direct.encoder cfg; recover } |])

(* Empty tables for the slots from [from] on, and the visitor that lands a
   chunk in them; one fold per slot serves every pass in turn. *)
let fresh slots ~from =
  Array.map (fun s -> Iblt.create s.prm) (Array.sub slots from (Array.length slots - from))

let into slots ~from tables _ kids =
  Array.iteri (fun i tbl -> slots.(from + i).fold tbl kids) tables

(* Alice builds every level table, T* and her digest in one walk of her
   stream and sends them as one message. *)
let alice ?memo ~seed plan st =
  let slots = slots ?memo plan in
  let tables = fresh slots ~from:0 in
  let digest = Parent.stream_pass ~seed st (into slots ~from:0 tables) in
  Comm.Send (plan.label, Comm.guarded tables ~guard:digest, Comm.Done ())

(* Bob walks his stream at most twice: first for his level-1 table, an
   index from the child hash each level-1 key carries to his child
   positions, which maps negatives back to his children, and his digest;
   then, only once level 1 has decoded, for every higher-level table and
   T*. So a failed level-1 decode costs one walk of his stream. Every pass
   folds each child's encodings into the tables four keys at a time,
   through reused key buffers per level. Levels >= 2 decode
   [alice_i - bob_i + db - da]: Bob deletes everything he can account for
   (XOR cancels, and add-then-delete of a shared child nets a zero
   count). The 8-byte guard carries [Parent.stream_hash], verified
   incrementally from the delta. *)
let finish ~seed ~slots plan (bob : Parent.stream) (received, alice_digest) =
  let n = Array.length slots in
  (* ---- Level 1 identifies D_B and recovers what its tables allow. ---- *)
  let cfg1 = plan.per_level.(0).enc in
  let child_hash = Encoding.child_hash cfg1 in
  let by_hash : (int, int) Hashtbl.t = Hashtbl.create (2 * bob.Parent.length) in
  let bob_l1 = Iblt.create slots.(0).prm in
  let bob_digest =
    Parent.stream_pass ~seed bob (fun base kids ->
        slots.(0).fold bob_l1 kids;
        Array.iteri (fun j c -> Hashtbl.add by_hash (child_hash c) (base + j)) kids)
  in
  match Iblt.decode (Iblt.subtract received.(0) bob_l1) with
  | Error `Peel_stuck -> Error `Decode_failure
  | Ok { positives; negatives } ->
    let hash_of_key = Encoding.hash_of_key cfg1 in
    let child_of_neg neg =
      List.find_map
        (fun i ->
          let c = bob.Parent.child i in
          if Bytes.equal (slots.(0).encode c) neg then Some c else None)
        (List.rev (Hashtbl.find_all by_hash (hash_of_key neg)))
    in
    let db = List.filter_map child_of_neg negatives in
    if List.length db <> List.length negatives then Error `Decode_failure
    else begin
      let da = ref [] in
      let da_tbl = Iset.Tbl.create 64 in
      (* Pair Alice's keys peeled out of [slot] with Bob's differing
         children, keeping each recovered child once. *)
      let recover_at slot keys =
        let recover = slots.(slot).recover db in
        List.iter
          (fun key ->
            match recover key with
            | Some c when not (Iset.Tbl.mem da_tbl c) ->
              Iset.Tbl.replace da_tbl c ();
              da := c :: !da
            | _ -> ())
          keys
      in
      recover_at 0 positives;
      (* Bob's second walk: every table above level 1, and T*. *)
      let bob_tables = fresh slots ~from:1 in
      if n > 1 then ignore (Parent.stream_pass ~seed bob (into slots ~from:1 bob_tables));
      (* Alice's still-unrecovered children at a level >= 2 or at T*: her
         table minus Bob's, with everything Bob can account for deleted.
         A stuck table leaves them to a later level or T*. *)
      for slot = 1 to n - 1 do
        let table = Iblt.subtract received.(slot) bob_tables.(slot - 1) in
        List.iter (fun c -> Iblt.insert table (slots.(slot).encode c)) db;
        List.iter (fun c -> Iblt.delete table (slots.(slot).encode c)) !da;
        match Iblt.decode table with
        | Error `Peel_stuck -> ()
        | Ok { positives; negatives = _ } -> recover_at slot positives
      done;
      let delta : Parent.delta = { a_only = !da; b_only = db } in
      if Parent.delta_digest ~seed ~base:bob_digest delta = alice_digest then Ok delta
      else Error `Decode_failure
    end

let bob ?memo ~seed plan st =
  let slots = slots ?memo plan in
  Comm.Recv
    (fun got ->
      Comm.Done
        (match Comm.parse_guarded (Array.map (fun s -> s.prm) slots) got with
        | None -> Error `Decode_failure
        | Some message -> finish ~seed ~slots plan st message))
