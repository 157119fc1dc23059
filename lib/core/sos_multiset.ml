module Iset = Ssr_util.Iset
module Bits = Ssr_util.Bits
module Multiset = Ssr_setrecon.Multiset
module Comm = Ssr_setrecon.Comm

type t = Multiset.t array
(* Invariant: sorted by Multiset.compare; duplicates allowed and adjacent. *)

let of_children kids =
  let arr = Array.of_list kids in
  Array.sort Multiset.compare arr;
  arr

let children = Array.to_list

let cardinal = Array.length

let equal (a : t) b = a = b

let diff_bound a b =
  let one_side xs other =
    Array.fold_left
      (fun acc c ->
        let best =
          Array.fold_left (fun m c' -> min m (Multiset.sym_diff_size c c')) (Multiset.cardinal c) other
        in
        acc + best)
      0 xs
  in
  let a_not_b = Array.of_list (List.filter (fun c -> not (Array.exists (Multiset.equal c) b)) (children a)) in
  let b_not_a = Array.of_list (List.filter (fun c -> not (Array.exists (Multiset.equal c) a)) (children b)) in
  one_side a_not_b b + one_side b_not_a a

let max_multiplicity t =
  Array.fold_left
    (fun acc m -> List.fold_left (fun acc (_, k) -> max acc k) acc (Multiset.to_pairs m))
    0 t

let max_duplication t =
  let m = ref 0 and run = ref 0 in
  Array.iteri
    (fun i c ->
      if i > 0 && Multiset.equal c t.(i - 1) then incr run else run := 1;
      m := max !m !run)
    t;
  !m

let count_cap a b =
  Bits.ceil_pow2 (max 2 (1 + max (max (max_multiplicity a) (max_multiplicity b)) (max (max_duplication a) (max_duplication b))))

(* Pair (x, k) with 1 <= k <= cap encodes as x*cap + (k-1); the occurrence
   marker of copy j is the pair (u, j). *)
let encode_child ~u ~cap ~occurrence child =
  if (u + 1) * cap > 1 lsl 60 then invalid_arg "Sos_multiset: universe * count cap too large";
  let pairs = Multiset.to_pairs child in
  List.iter
    (fun (x, k) ->
      if x < 0 || x >= u then invalid_arg "Sos_multiset: element outside universe";
      if k > cap then invalid_arg "Sos_multiset: multiplicity exceeds cap")
    pairs;
  if occurrence > cap then invalid_arg "Sos_multiset: duplication exceeds cap";
  Iset.of_list (((u * cap) + (occurrence - 1)) :: List.map (fun (x, k) -> (x * cap) + (k - 1)) pairs)

let decode_child ~u ~cap set =
  let pairs = ref [] in
  let ok = ref true in
  Iset.iter
    (fun e ->
      let x = e / cap and k = (e mod cap) + 1 in
      if x < u then pairs := (x, k) :: !pairs
      else if x > u then ok := false (* corrupt *))
    set;
  if !ok then Some (Multiset.of_pairs !pairs) else None

let to_parent ~u ~cap t =
  let kids = ref [] in
  let occurrence = ref 0 in
  Array.iteri
    (fun i c ->
      if i > 0 && Multiset.equal c t.(i - 1) then incr occurrence else occurrence := 1;
      kids := encode_child ~u ~cap ~occurrence:!occurrence c :: !kids)
    t;
  Parent.of_children !kids

let of_parent ~u ~cap parent =
  let rec decode_all kids acc =
    match kids with
    | [] -> Some (of_children acc)
    | set :: rest -> (
      match decode_child ~u ~cap set with
      | Some m -> decode_all rest (m :: acc)
      | None -> None)
  in
  decode_all (Parent.children parent) []

let setting ~u alice bob =
  let cap = count_cap alice bob in
  let alice_parent = to_parent ~u ~cap alice in
  let bob_parent = to_parent ~u ~cap bob in
  let u_set = (u + 1) * cap in
  let h_set = max 1 (max (Parent.max_child_size alice_parent) (Parent.max_child_size bob_parent)) in
  (cap, alice_parent, bob_parent, u_set, h_set)

let decoded ~u ~cap = function
  | Error `Decode_failure -> Error `Decode_failure
  | Ok { Protocol.recovered; stats = _ } -> (
    match of_parent ~u ~cap recovered with Some t -> Ok t | None -> Error `Decode_failure)

let run kind ~comm ~seed ~d ~u ~alice ~bob =
  let cap, alice_parent, bob_parent, u_set, h_set = setting ~u alice bob in
  (* Each multiset element change moves at most two pairs, and re-indexing a
     duplicated child moves two more. *)
  let d_set = (4 * d) + 4 in
  decoded ~u ~cap
    (Protocol.run_known kind ~comm ~seed ~enc_seed:None ~d:d_set ~u:u_set ~h:h_set
       ~alice:alice_parent ~bob:bob_parent)

let run_unknown kind ~comm ~seed ~u ~alice ~bob =
  let cap, alice_parent, bob_parent, u_set, h_set = setting ~u alice bob in
  decoded ~u ~cap
    (Protocol.run_unknown kind ~comm ~seed ~u:u_set ~h:h_set ~alice:alice_parent ~bob:bob_parent)

let with_stats run = Comm.run (fun comm -> Result.map (fun t -> (t, Comm.stats comm)) (run comm))

let reconcile kind ~seed ~d ~u ~alice ~bob () =
  with_stats (fun comm -> run kind ~comm ~seed ~d ~u ~alice ~bob)

let reconcile_unknown kind ~seed ~u ~alice ~bob () =
  with_stats (fun comm -> run_unknown kind ~comm ~seed ~u ~alice ~bob)
