module Iset = Ssr_util.Iset
module Prng = Ssr_util.Prng
module Hashing = Ssr_util.Hashing
module Buf = Ssr_util.Buf

type t = Iset.t array
(* Invariant: strictly increasing under Iset.compare (so children are
   distinct and the representation is canonical). *)

let of_children kids =
  let arr = Array.of_list (List.sort_uniq Iset.compare kids) in
  arr

let children t = Array.to_list t

let cardinal = Array.length

let total_elements t = Array.fold_left (fun acc c -> acc + Iset.cardinal c) 0 t

let max_child_size t = Array.fold_left (fun acc c -> max acc (Iset.cardinal c)) 0 t

let equal (a : t) b = a = b

let compare (a : t) b = Stdlib.compare a b

(* Binary search: the invariant keeps [t] sorted under Iset.compare. *)
let mem child t =
  let rec go lo hi =
    lo < hi
    &&
    let mid = (lo + hi) / 2 in
    let c = Iset.compare child t.(mid) in
    c = 0 || if c < 0 then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length t)

let canonical_bytes t =
  (* Length-prefix each child so the concatenation is injective. *)
  Buf.append_all
    (List.concat_map
       (fun c -> [ Buf.of_int_list [ Iset.cardinal c ]; Iset.canonical_bytes c ])
       (children t))

let hash_tag = 0x9A3E

let hash ~seed t = Hashing.hash_bytes (Hashing.make ~seed ~tag:hash_tag) (canonical_bytes t)

let symmetric_diff a b =
  let a_only = List.filter (fun c -> not (mem c b)) (children a) in
  let b_only = List.filter (fun c -> not (mem c a)) (children b) in
  (a_only, b_only)

let relaxed_matching_cost a b =
  let one_side xs other =
    List.fold_left
      (fun acc c ->
        let best =
          Array.fold_left (fun m c' -> min m (Iset.sym_diff_size c c')) (Iset.cardinal c) other
        in
        acc + best)
      0 xs
  in
  let a_only, b_only = symmetric_diff a b in
  one_side a_only b + one_side b_only a

type edit = { child_index : int; element : int; kind : [ `Add | `Del ] }

let perturb rng ~universe ?max_child_size:cap ~edits t =
  if Array.length t = 0 then invalid_arg "Parent.perturb: empty parent";
  let kids = Array.copy t in
  (* Track touched (child, element) pairs so edits never cancel. *)
  let touched = Hashtbl.create (2 * edits) in
  let log = ref [] in
  let applied = ref 0 in
  let attempts = ref 0 in
  while !applied < edits && !attempts < 1000 * (edits + 1) do
    incr attempts;
    let i = Prng.int_below rng (Array.length kids) in
    let child = kids.(i) in
    let do_del = Prng.bool rng && not (Iset.is_empty child) in
    if do_del then begin
      let arr = Iset.to_array child in
      let x = arr.(Prng.int_below rng (Array.length arr)) in
      if not (Hashtbl.mem touched (i, x)) then begin
        Hashtbl.add touched (i, x) ();
        kids.(i) <- Iset.remove x child;
        log := { child_index = i; element = x; kind = `Del } :: !log;
        incr applied
      end
    end
    else begin
      let room = match cap with None -> true | Some h -> Iset.cardinal child < h in
      if room then begin
        let x = Prng.int_below rng universe in
        if (not (Iset.mem x child)) && not (Hashtbl.mem touched (i, x)) then begin
          Hashtbl.add touched (i, x) ();
          kids.(i) <- Iset.add x child;
          log := { child_index = i; element = x; kind = `Add } :: !log;
          incr applied
        end
      end
    end
  done;
  if !applied < edits then failwith "Parent.perturb: could not place all edits";
  (of_children (Array.to_list kids), List.rev !log)

let random rng ~universe ~children:s ~child_size =
  if child_size > universe then invalid_arg "Parent.random: child_size > universe";
  let seen = Iset.Tbl.create (max 16 s) in
  let rec distinct acc remaining guard =
    if remaining = 0 then acc
    else if guard > 100 * s then failwith "Parent.random: cannot draw distinct children"
    else begin
      let c = Iset.random_subset rng ~universe ~size:child_size in
      if Iset.Tbl.mem seen c then distinct acc remaining (guard + 1)
      else begin
        Iset.Tbl.add seen c ();
        distinct (c :: acc) (remaining - 1) guard
      end
    end
  in
  of_children (distinct [] s 0)

(* ---- Streaming views. ----

   A stream presents a parent as a pure random-access function of position:
   child [i] is recomputable at any time, so protocol build passes can walk
   the children in bounded memory (encode a chunk, land it in the sketch,
   drop it) and recovery sweeps can fetch individual children by index
   instead of rescanning. Children must be distinct and in-universe, like
   the materialized representation's invariant. *)

type stream = { length : int; child : int -> Iset.t }

let stream_of_t (t : t) = { length = Array.length t; child = (fun i -> t.(i)) }

let of_stream st = of_children (List.init st.length st.child)

let stream_to_seq ?(from = 0) st =
  let rec go i () =
    if i >= st.length then Seq.Nil else Seq.Cons (st.child i, go (i + 1))
  in
  go from

let stream_total_elements st =
  let n = ref 0 in
  for i = 0 to st.length - 1 do
    n := !n + Iset.cardinal (st.child i)
  done;
  !n

let stream_max_child_size st =
  let h = ref 0 in
  for i = 0 to st.length - 1 do
    h := max !h (Iset.cardinal (st.child i))
  done;
  !h

(* Order-independent whole-parent digest: XOR of salted per-child hashes.
   The canonical [hash] needs the children in sorted order — impossible to
   produce from a stream without materializing — while XOR commutes, and
   Bob can adjust it incrementally: removing his extra children and adding
   Alice's recovered ones must land exactly on Alice's digest. *)
let stream_hash_tag = 0x57A9

let child_digest ~seed = Iset.digest (Hashing.make ~seed ~tag:stream_hash_tag)

(* A build pass holds one chunk of children (and whatever its visitor
   derives from them) at a time. *)
let chunk = 4096

(* Children [base, base+chunk) are fetched, folded into the digest, and
   handed to [visit] as one batch. Visitors land them in XOR-linear
   sketches, so the chunking is bit-identical to a one-shot whole-parent
   batch. *)
let stream_pass ~seed st visit =
  let digest = child_digest ~seed in
  let acc = ref 0 in
  let base = ref 0 in
  while !base < st.length do
    let b = !base in
    let kids = Array.init (min chunk (st.length - b)) (fun j -> st.child (b + j)) in
    for j = 0 to Array.length kids - 1 do
      acc := !acc lxor digest kids.(j)
    done;
    visit b kids;
    base := b + Array.length kids
  done;
  !acc

let stream_hash ~seed st = stream_pass ~seed st (fun _ _ -> ())

type delta = { a_only : Iset.t list; b_only : Iset.t list }

(* Bob's verification step: starting from his own digest, XOR out what only
   he has and XOR in what he recovered; the result must equal Alice's. *)
let delta_digest ~seed ~base { a_only; b_only } =
  let digest = child_digest ~seed in
  let f = List.fold_left (fun acc c -> acc lxor digest c) in
  f (f base b_only) a_only

let apply_delta t { a_only; b_only } =
  let drop = Iset.Tbl.create (List.length b_only) in
  List.iter (fun c -> Iset.Tbl.replace drop c ()) b_only;
  of_children (a_only @ List.filter (fun c -> not (Iset.Tbl.mem drop c)) (children t))

let pp fmt t =
  Format.fprintf fmt "parent(s=%d){%a}" (cardinal t)
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f "; ") Iset.pp)
    (children t)
