(* Benchmark-side layer spans.

   Spans are opened only around calls the benchmark itself makes into a
   layer's public functions (a protocol entry point, a stream's [child]
   closure, a transport's [transmit], a server handler), so nothing inside
   lib/ is instrumented. A span's self time is its duration minus the part
   covered by the spans it encloses; root spans are those opened with no
   span open, and their total is what [trace.unattributed_frac] subtracts
   from the traced wall time. Disabled spans cost one flag load. *)

let enabled = ref false

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type acc = { name : string; mutable calls : int; mutable total_ns : int; mutable self_ns : int }

let table : (string, acc) Hashtbl.t = Hashtbl.create 16

let acc name =
  match Hashtbl.find_opt table name with
  | Some a -> a
  | None ->
    let a = { name; calls = 0; total_ns = 0; self_ns = 0 } in
    Hashtbl.add table name a;
    a

type frame = { start : int; mutable child_ns : int }

let stack : frame list ref = ref []

let root_ns = ref 0

let reset () =
  Hashtbl.iter
    (fun _ a ->
      a.calls <- 0;
      a.total_ns <- 0;
      a.self_ns <- 0)
    table;
  stack := [];
  root_ns := 0

let close a fr =
  let dur = now_ns () - fr.start in
  stack := List.tl !stack;
  (match !stack with
   | parent :: _ -> parent.child_ns <- parent.child_ns + dur
   | [] -> root_ns := !root_ns + dur);
  a.calls <- a.calls + 1;
  a.total_ns <- a.total_ns + dur;
  a.self_ns <- a.self_ns + dur - fr.child_ns

let wrap a f =
  if not !enabled then f ()
  else begin
    let fr = { start = now_ns (); child_ns = 0 } in
    stack := fr :: !stack;
    match f () with
    | v ->
      close a fr;
      v
    | exception e ->
      close a fr;
      raise e
  end

let self_ms name = match Hashtbl.find_opt table name with Some a -> float_of_int a.self_ns /. 1e6 | None -> 0.
let total_ms name = match Hashtbl.find_opt table name with Some a -> float_of_int a.total_ns /. 1e6 | None -> 0.
let calls name = match Hashtbl.find_opt table name with Some a -> a.calls | None -> 0
let root_ms () = float_of_int !root_ns /. 1e6

let all () =
  Hashtbl.fold (fun _ a l -> a :: l) table [] |> List.sort (fun a b -> compare a.name b.name)
