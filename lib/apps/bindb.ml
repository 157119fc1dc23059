module Iset = Ssr_util.Iset
module Prng = Ssr_util.Prng
module Parent = Ssr_core.Parent
module Protocol = Ssr_core.Protocol
module Comm = Ssr_setrecon.Comm

type t = { columns : int; parent : Parent.t }

let row_to_set row =
  let ones = ref [] in
  Array.iteri (fun i b -> if b then ones := i :: !ones) row;
  Iset.of_list !ones

let create ~columns ~rows =
  List.iter
    (fun row -> if Array.length row <> columns then invalid_arg "Bindb.create: row width mismatch")
    rows;
  { columns; parent = Parent.of_children (List.map row_to_set rows) }

let columns t = t.columns

let num_rows t = Parent.cardinal t.parent

let row_sets t = Parent.children t.parent

let equal a b = a.columns = b.columns && Parent.equal a.parent b.parent

let total_ones t = Parent.total_elements t.parent

let flip_random_bits rng t k =
  let kids = Array.of_list (row_sets t) in
  if Array.length kids = 0 && k > 0 then invalid_arg "Bindb.flip_random_bits: empty database";
  let touched = Hashtbl.create (2 * k) in
  let flipped = ref 0 in
  while !flipped < k do
    let r = Prng.int_below rng (Array.length kids) in
    let c = Prng.int_below rng t.columns in
    if not (Hashtbl.mem touched (r, c)) then begin
      Hashtbl.add touched (r, c) ();
      kids.(r) <- (if Iset.mem c kids.(r) then Iset.remove c kids.(r) else Iset.add c kids.(r));
      incr flipped
    end
  done;
  { t with parent = Parent.of_children (Array.to_list kids) }

let of_parent ~columns parent = { columns; parent }

let reconcile kind ~seed ~d ~alice ~bob () =
  if alice.columns <> bob.columns then invalid_arg "Bindb.reconcile: column mismatch";
  match
    Protocol.reconcile_known kind ~seed ~d ~u:alice.columns ~h:alice.columns ~alice:alice.parent
      ~bob:bob.parent ()
  with
  | Ok { Protocol.recovered; stats } -> Ok (of_parent ~columns:alice.columns recovered, stats)
  | Error (`Decode_failure stats) -> Error (`Decode_failure stats)

let reconcile_unknown kind ~seed ~alice ~bob () =
  if alice.columns <> bob.columns then invalid_arg "Bindb.reconcile_unknown: column mismatch";
  match
    Protocol.reconcile_unknown kind ~seed ~u:alice.columns ~h:alice.columns ~alice:alice.parent
      ~bob:bob.parent ()
  with
  | Ok { Protocol.recovered; stats } -> Ok (of_parent ~columns:alice.columns recovered, stats)
  | Error (`Decode_failure stats) -> Error (`Decode_failure stats)
