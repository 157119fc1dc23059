type t = int array

let empty = [||]

let of_list xs =
  let arr = Array.of_list xs in
  Array.sort compare arr;
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let out = Array.make n arr.(0) in
    let k = ref 1 in
    for i = 1 to n - 1 do
      if arr.(i) <> arr.(i - 1) then begin
        out.(!k) <- arr.(i);
        incr k
      end
    done;
    Array.sub out 0 !k
  end

let of_sorted_array_unchecked arr = arr

let of_seq seq = of_list (List.of_seq seq)

let to_list = Array.to_list

let to_array t = Array.copy t

let cardinal = Array.length

let is_empty t = Array.length t = 0

let mem x t =
  let rec go lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      if t.(mid) = x then true else if t.(mid) < x then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length t)

let equal a b = a = b

let compare = compare

(* Generic sorted merge. [keep_left], [keep_both], [keep_right] select which
   elements survive, which expresses union/inter/diff/sym_diff uniformly. *)
let merge ~keep_left ~keep_both ~keep_right a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make (la + lb) 0 in
  let k = ref 0 in
  let push x =
    out.(!k) <- x;
    incr k
  in
  let i = ref 0 and j = ref 0 in
  while !i < la && !j < lb do
    let x = a.(!i) and y = b.(!j) in
    if x < y then begin
      if keep_left then push x;
      incr i
    end
    else if x > y then begin
      if keep_right then push y;
      incr j
    end
    else begin
      if keep_both then push x;
      incr i;
      incr j
    end
  done;
  if keep_left then
    while !i < la do
      push a.(!i);
      incr i
    done;
  if keep_right then
    while !j < lb do
      push b.(!j);
      incr j
    done;
  Array.sub out 0 !k

let union a b = merge ~keep_left:true ~keep_both:true ~keep_right:true a b
let inter a b = merge ~keep_left:false ~keep_both:true ~keep_right:false a b
let diff a b = merge ~keep_left:true ~keep_both:false ~keep_right:false a b
let sym_diff a b = merge ~keep_left:true ~keep_both:false ~keep_right:true a b

let sym_diff_size a b =
  let la = Array.length a and lb = Array.length b in
  let i = ref 0 and j = ref 0 and count = ref 0 in
  while !i < la && !j < lb do
    let x = a.(!i) and y = b.(!j) in
    if x < y then begin
      incr count;
      incr i
    end
    else if x > y then begin
      incr count;
      incr j
    end
    else begin
      incr i;
      incr j
    end
  done;
  !count + (la - !i) + (lb - !j)

let add x t = if mem x t then t else union [| x |] t

let remove x t = if mem x t then diff t [| x |] else t

let iter = Array.iter

let fold f t init = Array.fold_left (fun acc x -> f x acc) init t

let min_elt t = if Array.length t = 0 then raise Not_found else t.(0)

let max_elt t = if Array.length t = 0 then raise Not_found else t.(Array.length t - 1)

let apply_diff s ~add ~del = union (diff s del) add

let canonical_bytes t =
  let out = Bytes.create (8 * Array.length t) in
  Array.iteri (fun i x -> Buf.set_int_le out (i * 8) x) t;
  out

let read_canonical r n =
  if n < 0 || n > Codec.remaining r / 8 then None
  else begin
    let out = Array.make n 0 in
    let rec go i prev =
      if i = n then Some out
      else
        match Codec.int62 r with
        | Some v when v > prev ->
          out.(i) <- v;
          go (i + 1) v
        | _ -> None
    in
    go 0 (-1)
  end

let digest fn t = Hashing.hash_ints fn t

let random_subset rng ~universe ~size =
  if size > universe then invalid_arg "Iset.random_subset: size > universe";
  if size = 0 then empty
  else if 3 * size >= universe then begin
    (* Dense case: partial Fisher–Yates over the whole universe. *)
    let arr = Array.init universe (fun i -> i) in
    for i = 0 to size - 1 do
      let j = i + Prng.int_below rng (universe - i) in
      let tmp = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- tmp
    done;
    of_list (Array.to_list (Array.sub arr 0 size))
  end
  else begin
    (* Sparse case: rejection into a hash table. *)
    let seen = Hashtbl.create (2 * size) in
    while Hashtbl.length seen < size do
      let x = Prng.int_below rng universe in
      if not (Hashtbl.mem seen x) then Hashtbl.add seen x ()
    done;
    of_list (Hashtbl.fold (fun x () acc -> x :: acc) seen [])
  end

(* FNV-1a over every element (seeded with the length): unlike the
   polymorphic [Hashtbl.hash], which samples a bounded prefix, two child
   sets differing only deep in the tail still hash apart — the property the
   fingerprint-indexed recovery sweeps rely on. *)
let hash (t : t) =
  let fnv_prime = 0x100000001B3 in
  let h = ref (Array.length t lxor 0x3574_6E49) in
  for i = 0 to Array.length t - 1 do
    let x = t.(i) in
    h := (!h lxor (x land 0xFFFF_FFFF)) * fnv_prime;
    h := (!h lxor (x lsr 32)) * fnv_prime
  done;
  !h land max_int

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

let pp fmt t =
  Format.fprintf fmt "{%a}" (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ",") Format.pp_print_int) (to_list t)
