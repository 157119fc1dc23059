type counter = int Atomic.t

type gauge = int Atomic.t

(* Distributions update several fields per sample; a per-cell mutex keeps the
   (n, sum, min, max) tuple internally consistent under concurrent observers.
   Uncontended OCaml mutexes are a couple of atomic ops — cheap enough for
   instrumentation, and [observe] sits outside the zero-alloc sketch inner
   loops (which use counters). *)
type dist = {
  lock : Mutex.t;
  mutable n : int;
  mutable sum : int;
  mutable min_v : int;
  mutable max_v : int;
}

type cell = C of counter | G of gauge | D of dist

let registry : (string, cell) Hashtbl.t = Hashtbl.create 64

(* Guards first-touch registration and snapshot/reset iteration. Stdlib
   [Hashtbl] is not domain-safe: concurrent add + resize can corrupt the
   bucket array, and iteration during an add can miss or duplicate
   entries. Updates to already-registered cells never take this lock. *)
let registry_lock = Mutex.create ()

let with_registry f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

let kind_clash name = invalid_arg ("Metrics: " ^ name ^ " already registered with another kind")

let counter name =
  with_registry (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (C r) -> r
      | Some _ -> kind_clash name
      | None ->
        let r = Atomic.make 0 in
        Hashtbl.add registry name (C r);
        r)

let add c by = ignore (Atomic.fetch_and_add c by)

let incr c = add c 1

let gauge name =
  with_registry (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (G r) -> r
      | Some _ -> kind_clash name
      | None ->
        let r = Atomic.make 0 in
        Hashtbl.add registry name (G r);
        r)

let set g v = Atomic.set g v

let fresh_dist () = { lock = Mutex.create (); n = 0; sum = 0; min_v = max_int; max_v = min_int }

let dist name =
  with_registry (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (D d) -> d
      | Some _ -> kind_clash name
      | None ->
        let d = fresh_dist () in
        Hashtbl.add registry name (D d);
        d)

let observe d v =
  Mutex.lock d.lock;
  d.n <- d.n + 1;
  d.sum <- d.sum + v;
  if v < d.min_v then d.min_v <- v;
  if v > d.max_v then d.max_v <- v;
  Mutex.unlock d.lock

type value =
  | Counter of int
  | Gauge of int
  | Dist of { count : int; sum : int; min : int; max : int }

type snapshot = (string * value) list

let snapshot () =
  with_registry (fun () ->
      Hashtbl.fold
        (fun name cell acc ->
          let v =
            match cell with
            | C r -> Counter (Atomic.get r)
            | G r -> Gauge (Atomic.get r)
            | D d ->
              Mutex.lock d.lock;
              let v = Dist { count = d.n; sum = d.sum; min = d.min_v; max = d.max_v } in
              Mutex.unlock d.lock;
              v
          in
          (name, v) :: acc)
        registry [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let diff ~before ~after =
  let prior = Hashtbl.create (List.length before) in
  List.iter (fun (name, v) -> Hashtbl.replace prior name v) before;
  List.filter_map
    (fun (name, v) ->
      match (v, Hashtbl.find_opt prior name) with
      | Counter a, Some (Counter b) -> if a = b then None else Some (name, Counter (a - b))
      | Dist a, Some (Dist b) ->
        if a.count = b.count then None
        else Some (name, Dist { a with count = a.count - b.count; sum = a.sum - b.sum })
      | Gauge a, Some (Gauge b) -> if a = b then None else Some (name, Gauge a)
      (* Registered (or re-kinded) after [before] was taken: report as-is,
         unless it never fired at all. *)
      | Counter 0, None | Dist { count = 0; _ }, None -> None
      | v, _ -> Some (name, v))
    after

let find snap name = List.assoc_opt name snap

let counter_value snap name = match find snap name with Some (Counter n) -> n | _ -> 0

(* Metric names are controlled identifiers, but escape defensively so the
   output is valid JSON whatever ends up in the registry. *)
let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let value_to_json = function
  | Counter n | Gauge n -> string_of_int n
  | Dist { count; sum; min; max } ->
    if count = 0 then "{\"count\": 0}"
    else
      Printf.sprintf "{\"count\": %d, \"sum\": %d, \"min\": %d, \"max\": %d, \"mean\": %.3f}" count
        sum min max
        (float_of_int sum /. float_of_int count)

let to_json snap =
  let b = Buffer.create 256 in
  Buffer.add_string b "{";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (Printf.sprintf "\"%s\": %s" (json_escape name) (value_to_json v)))
    snap;
  Buffer.add_string b "}";
  Buffer.contents b

let pp fmt snap =
  List.iter
    (fun (name, v) ->
      match v with
      | Counter n -> Format.fprintf fmt "%-40s %d@." name n
      | Gauge n -> Format.fprintf fmt "%-40s %d (gauge)@." name n
      | Dist { count; sum; min; max } ->
        if count = 0 then Format.fprintf fmt "%-40s (empty dist)@." name
        else
          Format.fprintf fmt "%-40s n=%d sum=%d min=%d max=%d mean=%.2f@." name count sum min max
            (float_of_int sum /. float_of_int count))
    snap
