type field = I of int | S of string | F of float

type event = {
  t_us : int;
  layer : string;
  name : string;
  fields : (string * field) list;
}

(* [Sys.time] is CPU time, but it is monotonic and dependency-free; runs
   that care about meaningful timestamps install the transport layer's
   virtual clock, which is exact and replayable. *)
let default_now () = int_of_float (Sys.time () *. 1e6)

let now = ref default_now

let set_time_source f = now := f

let clear_time_source () = now := default_now

let capacity = ref 4096

let ring : event option array ref = ref (Array.make !capacity None)

let next = ref 0 (* total events ever written since last clear *)

(* One mutex guards the (ring, next) pair: [emit] is a write-then-increment
   that must be atomic with respect to concurrent emitters (two domains
   landing on the same [next] would lose an event) and with respect to
   [set_capacity] swapping the array out from under a write. *)
let ring_lock = Mutex.create ()

let with_ring f =
  Mutex.lock ring_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock ring_lock) f

let emit ~layer ?(fields = []) name =
  let t_us = !now () in
  with_ring (fun () ->
      let cap = Array.length !ring in
      !ring.(!next mod cap) <- Some { t_us; layer; name; fields };
      incr next)

let events () =
  with_ring (fun () ->
      let cap = Array.length !ring in
      let first = max 0 (!next - cap) in
      List.filter_map (fun i -> !ring.(i mod cap)) (List.init (!next - first) (fun k -> first + k)))

let dropped () = with_ring (fun () -> max 0 (!next - Array.length !ring))

let set_capacity n =
  if n < 1 then invalid_arg "Trace.set_capacity: capacity must be positive";
  with_ring (fun () ->
      capacity := n;
      ring := Array.make n None;
      next := 0)

let field_to_json = function
  | I i -> string_of_int i
  | S s -> Printf.sprintf "\"%s\"" (Metrics.json_escape s)
  | F f -> if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

let event_to_json e =
  let b = Buffer.create 64 in
  Buffer.add_string b
    (Printf.sprintf "{\"t_us\": %d, \"layer\": \"%s\", \"event\": \"%s\"" e.t_us
       (Metrics.json_escape e.layer) (Metrics.json_escape e.name));
  List.iter
    (fun (k, v) ->
      Buffer.add_string b (Printf.sprintf ", \"%s\": %s" (Metrics.json_escape k) (field_to_json v)))
    e.fields;
  Buffer.add_string b "}";
  Buffer.contents b

let to_json () =
  let b = Buffer.create 1024 in
  Buffer.add_string b "[\n";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b "  ";
      Buffer.add_string b (event_to_json e))
    (events ());
  Buffer.add_string b "\n]\n";
  Buffer.contents b

let write_file path =
  let oc = open_out path in
  output_string oc (to_json ());
  close_out oc
