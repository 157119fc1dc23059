(* What every workload reports, and the statistics computed from it. *)

type status = Verified | Failed | Wrong of string

(* One reconciliation. [wall_ms] is wall time inside the library calls;
   the other fields are pure functions of the request's seeds. *)
type sample = {
  stack : string;  (** The protocol stack or client kind that served it. *)
  status : status;
  wall_ms : float;
  virtual_us : int;
  wire_bytes : int;
  payload_bits : int;
  bound_bits : float;
  rounds : int;
  messages : int;
}

(* Paper bounds in bits, constants dropped, as in bench/million.ml. *)
let paper_bound_bits kind ~d ~s ~u ~h =
  let logu = float_of_int (Ssr_util.Bits.bits_needed (max 2 (u - 1))) in
  let logs = float_of_int (Ssr_util.Bits.bits_needed (max 2 s)) in
  let d_hat = float_of_int (min d (max 2 s)) and fd = float_of_int d in
  match kind with
  | Ssr_core.Protocol.Naive -> (d_hat *. float_of_int h *. logu) +. d_hat
  | Ssr_core.Protocol.Iblt_of_iblts -> (d_hat *. fd *. logu) +. (d_hat *. logs)
  | Ssr_core.Protocol.Cascade ->
    let t = float_of_int (Ssr_util.Bits.bits_needed (max 2 (min d h))) in
    (fd *. t *. logu) +. (fd *. logs)
  | Ssr_core.Protocol.Multiround -> fd *. logu

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Every set-up a run performs is timed here; [setup_s] reports their
   median. A closed-loop workload sets up five times and keeps the last. *)
let setup_times : float list ref = ref []

let setup f =
  let t0 = now_s () in
  let v = f () in
  setup_times := (now_s () -. t0) :: !setup_times;
  v

let setup5 f =
  for _ = 1 to 4 do
    ignore (setup f)
  done;
  setup f

(* The counts that must repeat exactly when a request is replayed. *)
let same_counts a b =
  a.virtual_us = b.virtual_us && a.wire_bytes = b.wire_bytes && a.payload_bits = b.payload_bits
  && a.rounds = b.rounds && a.messages = b.messages && a.status = b.status

(* Each request pays its own child encodings: the cache is cleared before
   it, so [Enc_cache] shows only sharing within a request (levels, rungs,
   both sides) and no request is cheaper for its index. The statistics of
   every request are summed here before the clear resets them. *)
let cache_hits = ref 0
let cache_misses = ref 0
let cache_peak_bytes = ref 0

let fresh_enc_cache () =
  let s = Ssr_core.Enc_cache.stats () in
  cache_hits := !cache_hits + s.Ssr_core.Enc_cache.hits;
  cache_misses := !cache_misses + s.Ssr_core.Enc_cache.misses;
  cache_peak_bytes := max !cache_peak_bytes s.Ssr_core.Enc_cache.bytes;
  Ssr_core.Enc_cache.clear ()

(* Between requests (and server passes) the heap is collected outside the
   timed region, so each pays only its own GC work. The forced collections
   and their time are kept out of the per-layer GC counts and out of the
   wall time the spans are compared against. *)
let forced_majors = ref 0
let forced_gc_s = ref 0.

let collect_garbage () =
  let m0 = (Gc.quick_stat ()).Gc.major_collections and t0 = now_s () in
  Gc.full_major ();
  forced_gc_s := !forced_gc_s +. (now_s () -. t0);
  forced_majors := !forced_majors + (Gc.quick_stat ()).Gc.major_collections - m0

type run = {
  samples : sample array;  (** In the order the requests were sent. *)
  prefix : int;
      (** The first [prefix] samples are the same requests on every run with
          this seed: the deterministic counts are taken over them. *)
  busy_s : float;  (** Wall seconds inside the timed region. *)
  replay : unit -> string list;
      (** Re-runs requests of this run and names each whose counts differ.
          Called after the per-layer snapshot, so it is not measured. *)
}

(* Closed loop, one caller: request [i] is a pure function of (seed, i) and
   is issued when request [i - 1] has returned, with the encoding cache
   emptied and the heap collected in between. The loop always completes the
   [prefix] requests, then runs until [seconds] have passed. Its replay
   re-issues the first [replay] requests. *)
let closed_loop ~prefix ~replay ~seconds request =
  let t0 = now_s () in
  let acc = ref [] and busy = ref 0. and i = ref 0 in
  while !i < prefix || now_s () -. t0 < seconds do
    fresh_enc_cache ();
    collect_garbage ();
    let s = request !i in
    acc := s :: !acc;
    busy := !busy +. (s.wall_ms /. 1e3);
    incr i
  done;
  fresh_enc_cache ();
  let samples = Array.of_list (List.rev !acc) in
  let replay () =
    List.filter_map
      (fun j ->
        Ssr_core.Enc_cache.clear ();
        if same_counts samples.(j) (request j) then None
        else Some (Printf.sprintf "request %d: counts differ on replay" j))
      (List.init (min replay (Array.length samples)) Fun.id)
  in
  { samples; prefix; busy_s = !busy; replay }

(* Nearest-rank quantile of an unsorted array. *)
let quantile xs q =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median xs = quantile (Array.of_list xs) 0.5

let count p a = Array.fold_left (fun n s -> if p s then n + 1 else n) 0 a

let verified r = count (fun s -> s.status = Verified) r.samples
let failed r = count (fun s -> s.status = Failed) r.samples

let wrong r =
  Array.to_list r.samples |> List.filter_map (fun s -> match s.status with Wrong m -> Some m | _ -> None)

let prefix_mean r f =
  let n = min r.prefix (Array.length r.samples) in
  let sum = ref 0. in
  for j = 0 to n - 1 do
    sum := !sum +. f r.samples.(j)
  done;
  !sum /. float_of_int (max 1 n)

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_json ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value) x.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed (String.concat ", " body)

let print_table title metrics =
  Printf.printf "%s\n" title;
  List.iter (fun x -> Printf.printf "  %-34s %16.6g %s\n" x.name x.value x.unit_) metrics
