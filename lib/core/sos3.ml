module Iset = Ssr_util.Iset
module Bits = Ssr_util.Bits
module Prng = Ssr_util.Prng
module Buf = Ssr_util.Buf
module Hashing = Ssr_util.Hashing
module Iblt = Ssr_sketch.Iblt
module Comm = Ssr_setrecon.Comm
module Metrics = Ssr_obs.Metrics

let m_retries = Metrics.counter "proto.sos3.retries"

type t = Parent.t array
(* Invariant: strictly increasing under Parent.compare. *)

let of_parents ps = Array.of_list (List.sort_uniq Parent.compare ps)

let parents = Array.to_list

let cardinal = Array.length

let equal (a : t) b = a = b

let hash_tag = 0x5053

let hash ~seed t =
  let fn = Hashing.make ~seed ~tag:hash_tag in
  Hashing.hash_bytes fn
    (Buf.append_all (List.map (fun p -> Buf.of_int_list [ Parent.hash ~seed p ]) (parents t)))

let perturb rng ~universe ~edits t =
  if Array.length t = 0 then invalid_arg "Sos3.perturb: empty collection";
  let arr = Array.copy t in
  for _ = 1 to edits do
    let i = Prng.int_below rng (Array.length arr) in
    let p', _ = Parent.perturb rng ~universe ~edits:1 arr.(i) in
    arr.(i) <- p'
  done;
  of_parents (Array.to_list arr)

(* Relaxed best-matching bounds, one nesting level up from
   Parent.relaxed_matching_cost. *)
let diff_bounds a b =
  let a_only = List.filter (fun p -> not (Array.exists (Parent.equal p) b)) (parents a) in
  let b_only = List.filter (fun p -> not (Array.exists (Parent.equal p) a)) (parents b) in
  let d3 = max (List.length a_only) (List.length b_only) in
  let best_match p other =
    Array.fold_left
      (fun (bc, bp) q ->
        let c = Parent.relaxed_matching_cost p q in
        if c < bc then (c, Some q) else (bc, bp))
      (max_int, None) other
  in
  let child_stats p q =
    (* differing children of p against q, and the max child difference *)
    let q_children = Parent.children q in
    let diffs =
      List.filter_map
        (fun c ->
          if List.exists (Iset.equal c) q_children then None
          else
            Some
              (List.fold_left (fun m c' -> min m (Iset.sym_diff_size c c')) (Iset.cardinal c)
                 q_children))
        (Parent.children p)
    in
    (List.length diffs, List.fold_left max 0 diffs)
  in
  let d2 = ref 0 and d1 = ref 0 in
  let consider side other =
    List.iter
      (fun p ->
        match best_match p other with
        | _, Some q ->
          let nd, md = child_stats p q in
          d2 := max !d2 nd;
          d1 := max !d1 md
        | _, None ->
          d2 := max !d2 (Parent.cardinal p);
          d1 := max !d1 (Parent.max_child_size p))
      side
  in
  consider a_only b;
  consider b_only a;
  (d3, !d2, max 1 !d1)

type outcome = { recovered : t; stats : Comm.stats }

type error = [ `Decode_failure of Comm.stats ]

(* Level-2 encoding: a parent becomes (IBLT over its child encodings, 64-bit
   parent hash), serialized at fixed width. *)
type level2_config = {
  cfg1 : Encoding.config;
  parent_prm : Iblt.params;
  seed : int64;
}

(* Every table has k = 3 hash functions. *)
let k = 3

let level2_config ~seed ~d ~d2 ~s_bound =
  let cfg1 : Encoding.config =
    {
      child_cells = Iblt.recommended_cells ~k ~diff_bound:d;
      child_k = k;
      hash_bits = min 62 ((3 * Bits.ceil_log2 (max 2 s_bound)) + 10);
      seed = Prng.derive ~seed ~tag:0x531;
    }
  in
  let parent_prm : Iblt.params =
    {
      cells = Iblt.recommended_cells ~k ~diff_bound:(2 * d2);
      k;
      key_len = Encoding.key_length cfg1;
      seed = Prng.derive ~seed ~tag:0x532;
    }
  in
  { cfg1; parent_prm; seed }

(* Each child's encoding is folded into the parent's table through reused
   key buffers. The fold is made per call, so no two callers share its
   buffers. *)
let parent_table cfg parent =
  let table = Iblt.create cfg.parent_prm in
  Encoding.fold cfg.cfg1 table (Array.of_list (Parent.children parent));
  table

let parent_key_length cfg = Iblt.body_length cfg.parent_prm + 8

let encode_parent cfg parent =
  let body = Iblt.body_bytes (parent_table cfg parent) in
  let out = Bytes.create (Bytes.length body + 8) in
  Bytes.blit body 0 out 0 (Bytes.length body);
  Buf.set_int_le out (Bytes.length body) (Parent.hash ~seed:cfg.seed parent);
  out

(* Level-2 keys reaching the decoder were peeled out of a received outer
   IBLT, so their content is wire-derived: a corrupted key slab can carry an
   out-of-range hash word or a mangled body. Total parsing makes that a
   failed recovery (handled by the pairing search) instead of an
   exception. *)
let decode_parent_key_opt cfg key =
  let body_len = Iblt.body_length cfg.parent_prm in
  if Bytes.length key <> body_len + 8 then None
  else
    match
      (Iblt.of_body_bytes_opt cfg.parent_prm (Bytes.sub key 0 body_len),
       Buf.get_int_le_opt key body_len)
    with
    | Some table, Some h -> Some (table, h)
    | _ -> None

(* Recover one of Alice's parents from its level-2 key by pairing it with
   one of Bob's differing parents. *)
let try_recover_parent cfg ~alice_key ~bob_parent =
  match decode_parent_key_opt cfg alice_key with
  | None -> None
  | Some (alice_table, alice_hash) -> (
  let diff = Iblt.subtract alice_table (parent_table cfg bob_parent) in
  match Iblt.decode diff with
  | Error `Peel_stuck -> None
  | Ok { positives; negatives } -> (
    (* negatives are encodings of Bob's children inside this parent. *)
    let bob_children = Parent.children bob_parent in
    let bob_encodings = List.map (fun c -> (Encoding.encode cfg.cfg1 c, c)) bob_children in
    let by_key = Hashtbl.create (2 * List.length bob_encodings) in
    List.iter
      (fun (key, c) -> if not (Hashtbl.mem by_key key) then Hashtbl.add by_key key c)
      bob_encodings;
    let db = List.filter_map (fun neg -> Hashtbl.find_opt by_key neg) negatives in
    if List.length db <> List.length negatives then None
    else begin
      let recover = Encoding.pairing cfg.cfg1 db in
      match
        List.fold_left
          (fun acc key -> Option.bind acc (fun da -> Option.map (fun c -> c :: da) (recover key)))
          (Some []) positives
      with
      | None -> None
      | Some da ->
        let db_tbl = Iset.Tbl.create (List.length db) in
        List.iter (fun c -> Iset.Tbl.replace db_tbl c ()) db;
        let remaining = List.filter (fun c -> not (Iset.Tbl.mem db_tbl c)) bob_children in
        let candidate = Parent.of_children (da @ remaining) in
        if Parent.hash ~seed:cfg.seed candidate = alice_hash then Some candidate else None
    end))

(* Both parties' configuration: the level-2 encoding and the grandparent
   table over the parent encodings. *)
let config ~seed ~d ~d2 ~d3 ~s =
  let cfg = level2_config ~seed ~d ~d2 ~s_bound:s in
  let cells = Iblt.recommended_cells ~k ~diff_bound:(2 * d3) in
  (cfg, { Iblt.cells; k; key_len = parent_key_length cfg; seed = Prng.derive ~seed ~tag:0x533 })

(* Alice's single message: grandparent IBLT over parent encodings + hash. *)
let alice ~seed ~d ~d2 ~d3 ~s parents =
  let cfg, prm = config ~seed ~d ~d2 ~d3 ~s in
  let outer = Iblt.create prm in
  Iblt.add_all outer (Array.map (encode_parent cfg) parents);
  Comm.Send ("sos3-iblt+hash", Comm.guarded [| outer |] ~guard:(hash ~seed parents), Comm.Done ())

(* Bob's side, from the delivered bytes. His differing parents are found
   by their encodings through one table, not a scan per negative. *)
let finish cfg ~prm ~seed parents (received, alice_hash) =
  let encodings = Array.map (encode_parent cfg) parents in
  let bob_outer = Iblt.create prm in
  Iblt.add_all bob_outer encodings;
  match Iblt.decode (Iblt.subtract received.(0) bob_outer) with
  | Error `Peel_stuck -> Error `Decode_failure
  | Ok { positives; negatives } -> (
    let by_key = Hashtbl.create (2 * Array.length encodings) in
    Array.iteri (fun i k -> if not (Hashtbl.mem by_key k) then Hashtbl.add by_key k i) encodings;
    let db3 = List.filter_map (Hashtbl.find_opt by_key) negatives in
    if List.length db3 <> List.length negatives then Error `Decode_failure
    else
      let recover key =
        List.find_map (fun i -> try_recover_parent cfg ~alice_key:key ~bob_parent:parents.(i)) db3
      in
      match
        List.fold_left
          (fun acc key -> Option.bind acc (fun da -> Option.map (fun p -> p :: da) (recover key)))
          (Some []) positives
      with
      | None -> Error `Decode_failure
      | Some da3 ->
        let gone = Array.make (Array.length parents) false in
        List.iter (fun i -> gone.(i) <- true) db3;
        let kept = List.filteri (fun i _ -> not gone.(i)) (Array.to_list parents) in
        let recovered = of_parents (da3 @ kept) in
        if hash ~seed recovered = alice_hash then Ok recovered else Error `Decode_failure)

let bob ~seed ~d ~d2 ~d3 ~s parents =
  let cfg, prm = config ~seed ~d ~d2 ~d3 ~s in
  Comm.Recv
    (fun got ->
      Comm.Done
        (match Comm.parse_guarded [| prm |] got with
        | None -> Error `Decode_failure
        | Some message -> finish cfg ~prm ~seed parents message))

(* The [s] bound the drivers here pass: the largest of Bob's parents. *)
let s_bound bob = Array.fold_left (fun acc p -> max acc (Parent.cardinal p)) 2 bob

let outcome comm = Result.map (fun recovered -> { recovered; stats = Comm.stats comm })

let run_known ~comm ~seed ~d ~d2 ~d3 ~alice:a ~bob:b =
  let s = s_bound b in
  outcome comm
    (Comm.drive comm ~alice:(alice ~seed ~d ~d2 ~d3 ~s a) ~bob:(bob ~seed ~d ~d2 ~d3 ~s b))

let reconcile_known ~seed ~d ~d2 ~d3 ~alice ~bob () =
  Comm.run (fun comm -> run_known ~comm ~seed ~d ~d2 ~d3 ~alice ~bob)

let doubling_seed ~seed ~d = Prng.derive ~seed ~tag:(0x540 + Bits.ceil_log2 (d + 1))

let run_unknown ~comm ~seed ~alice:a ~bob:b =
  let s = s_bound b in
  outcome comm
    (Comm.retry_doubling comm ~retries:m_retries ~d:1
       ~stop:(fun ~attempt:_ ~d -> d > 1 lsl 16)
       (fun ~attempt:_ ~d ->
         let seed = doubling_seed ~seed ~d in
         Comm.drive comm ~alice:(alice ~seed ~d ~d2:d ~d3:d ~s a) ~bob:(bob ~seed ~d ~d2:d ~d3:d ~s b)))

let reconcile_unknown ~seed ~alice ~bob () = Comm.run (fun comm -> run_unknown ~comm ~seed ~alice ~bob)
