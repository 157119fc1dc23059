module Buf = Ssr_util.Buf

type t = (int * int) array
(* Invariant: strictly increasing first components, all counts positive. *)

let of_pairs pairs =
  List.iter (fun (_, k) -> if k <= 0 then invalid_arg "Multiset.of_pairs: non-positive count") pairs;
  let tbl = Hashtbl.create (List.length pairs) in
  List.iter (fun (x, k) -> Hashtbl.replace tbl x (k + (try Hashtbl.find tbl x with Not_found -> 0))) pairs;
  let arr = Array.of_seq (Hashtbl.to_seq tbl) in
  Array.sort compare arr;
  arr

let of_list xs = of_pairs (List.map (fun x -> (x, 1)) xs)

let to_pairs = Array.to_list

let to_list t = List.concat_map (fun (x, k) -> List.init k (fun _ -> x)) (to_pairs t)

let cardinal t = Array.fold_left (fun acc (_, k) -> acc + k) 0 t

let support_size = Array.length

let multiplicity x t =
  let rec go lo hi =
    if lo >= hi then 0
    else
      let mid = (lo + hi) / 2 in
      let y, k = t.(mid) in
      if y = x then k else if y < x then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length t)

let add ?(count = 1) x t =
  if count <= 0 then invalid_arg "Multiset.add: non-positive count";
  of_pairs ((x, count) :: to_pairs t)

let remove ?(count = 1) x t =
  if count <= 0 then invalid_arg "Multiset.remove: non-positive count";
  Array.of_list
    (List.filter_map
       (fun (y, k) -> if y = x then if k > count then Some (y, k - count) else None else Some (y, k))
       (to_pairs t))

let equal (a : t) b = a = b
let compare = compare

let sym_diff_size a b =
  let la = Array.length a and lb = Array.length b in
  let i = ref 0 and j = ref 0 and acc = ref 0 in
  while !i < la && !j < lb do
    let x, kx = a.(!i) and y, ky = b.(!j) in
    if x < y then begin
      acc := !acc + kx;
      incr i
    end
    else if x > y then begin
      acc := !acc + ky;
      incr j
    end
    else begin
      acc := !acc + abs (kx - ky);
      incr i;
      incr j
    end
  done;
  while !i < la do
    acc := !acc + snd a.(!i);
    incr i
  done;
  while !j < lb do
    acc := !acc + snd b.(!j);
    incr j
  done;
  !acc

let pair_keys t ~key_len =
  if key_len < 16 then invalid_arg "Multiset.pair_keys: key_len must be >= 16";
  List.map
    (fun (x, k) ->
      let b = Bytes.make key_len '\000' in
      Buf.set_int_le b 0 x;
      Buf.set_int_le b 8 k;
      b)
    (to_pairs t)

(* Pair keys recovered from an IBLT peel are wire-derived data: a key slab
   corrupted in transit can hold any 128 bits, so every failure mode —
   short key, out-of-native-range word, negative element, non-positive
   count — must yield [None], never an exception. *)
let of_pair_keys_opt keys =
  let rec go acc = function
    | [] -> Some (of_pairs (List.rev acc))
    | b :: rest ->
      if Bytes.length b < 16 then None
      else (
        match (Buf.get_int_le_opt b 0, Buf.get_int_le_opt b 8) with
        | Some x, Some k when x >= 0 && k > 0 -> go ((x, k) :: acc) rest
        | _ -> None)
  in
  go [] keys

let of_pair_keys keys =
  match of_pair_keys_opt keys with
  | Some t -> t
  | None -> invalid_arg "Multiset.of_pair_keys: malformed pair key"

let canonical_bytes t =
  let out = Bytes.create (16 * Array.length t) in
  Array.iteri
    (fun i (x, k) ->
      Buf.set_int_le out (16 * i) x;
      Buf.set_int_le out ((16 * i) + 8) k)
    t;
  out
