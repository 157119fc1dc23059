module Iset = Ssr_util.Iset
module Parent = Ssr_core.Parent
module Protocol = Ssr_core.Protocol
module Comm = Ssr_setrecon.Comm

type doc = { shingles : Iset.t }

(* Ingestion is routed through the streaming dataset layer: the window
   hashes arrive as a Seq and are folded straight into the sorted-set
   representation, never materializing an intermediate list per document.
   Hash values are unchanged (same seeded window hash). *)
let shingle ~k text =
  if k < 1 then invalid_arg "Shingles.shingle: k must be positive";
  { shingles = Iset.of_seq (Datasets.shingle_seq ~k text) }

let shingle_set d = d.shingles

let resemblance a b =
  let inter = Iset.cardinal (Iset.inter a.shingles b.shingles) in
  let union = Iset.cardinal (Iset.union a.shingles b.shingles) in
  if union = 0 then 1.0 else float_of_int inter /. float_of_int union

type collection = Parent.t

let collection ds = Parent.of_children (List.map shingle_set ds)

let equal = Parent.equal

type classification = { unchanged : int; near_duplicates : int; fresh : int }

(* Shingle hashes are 62-bit values. *)
let universe = (1 lsl 62) - 1

let classify ~recovered ~bob =
  let bob_children = Parent.children bob in
  let bob_tbl = Iset.Tbl.create (max 16 (List.length bob_children)) in
  List.iter (fun c -> Iset.Tbl.replace bob_tbl c ()) bob_children;
  let unchanged = ref 0 and near = ref 0 and fresh = ref 0 in
  List.iter
    (fun c ->
      if Iset.Tbl.mem bob_tbl c then incr unchanged
      else begin
        let cd = { shingles = c } in
        let best =
          List.fold_left (fun acc b -> max acc (resemblance cd { shingles = b })) 0.0 bob_children
        in
        if best >= 0.5 then incr near else incr fresh
      end)
    (Parent.children recovered);
  { unchanged = !unchanged; near_duplicates = !near; fresh = !fresh }

let reconcile kind ~seed ~alice ~bob () =
  let h = max 1 (max (Parent.max_child_size alice) (Parent.max_child_size bob)) in
  match Protocol.reconcile_unknown kind ~seed ~u:universe ~h ~alice ~bob () with
  | Ok { Protocol.recovered; stats } -> Ok (recovered, classify ~recovered ~bob, stats)
  | Error (`Decode_failure stats) -> Error (`Decode_failure stats)
