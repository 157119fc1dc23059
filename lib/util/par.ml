(* Deterministic fork-join domain pool over the OCaml 5 multicore runtime.

   Design constraints, in priority order:

   - Determinism: every combinator assigns work to fixed result slots, so
     the *value* a parallel region produces is independent of scheduling.
     Protocols built on top therefore emit byte-identical transcripts at
     any pool size; only wall-clock changes.
   - Opt-in: the pool defaults to size 1 (serial), in which case no domain
     is ever spawned and every combinator degrades to a plain closure call
     on the caller's stack — the default code path is exactly the code
     that ran before this module existed. Replay/fixed-seed tests are
     untouched unless a caller explicitly asks for domains via
     [set_domains] / [--domains N] / the SSR_DOMAINS environment variable.
   - Nesting: fork-join regions nest (split_roots forks inside forks), so
     a blocked joiner must not hold a worker hostage. Joiners steal queued
     tasks while they wait ("helping"), which makes the strict fork-join
     dependency graph deadlock-free at any pool size.

   Workers are spawned lazily on the first parallel region and never
   joined; they block on the queue condition until process exit. *)

let m_tasks = Ssr_obs.Metrics.counter "par.tasks"
let g_domains = Ssr_obs.Metrics.gauge "par.domains"

(* Hard cap on the pool size: far above any sane machine, low enough that a
   typo'd --domains cannot fork-bomb the host. *)
let max_domains = 64

let env_domains () =
  match Sys.getenv_opt "SSR_DOMAINS" with
  | None -> 1
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 0 -> n
    | _ -> 1)

(* 0 means "auto": size by what the runtime recommends for this machine. *)
let requested = ref (env_domains ())

let available () =
  let n = if !requested = 0 then Domain.recommended_domain_count () else !requested in
  max 1 (min max_domains n)

let () = Ssr_obs.Metrics.set g_domains (available ())

let set_domains n =
  if n < 0 then invalid_arg "Par.set_domains: negative";
  requested := n;
  Ssr_obs.Metrics.set g_domains (available ())

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

(* A job belongs to one fork-join region; [pending] counts that region's
   unfinished jobs and is only touched under [mutex]. [cond] is signaled on
   every push and every completion, so joiners and idle workers share it. *)
type region = { mutable pending : int }

type job = { body : unit -> unit; region : region }

let mutex = Mutex.create ()
let cond = Condition.create ()
let queue : job Queue.t = Queue.create ()
let spawned = ref 0

let exec job =
  job.body ();
  Mutex.lock mutex;
  job.region.pending <- job.region.pending - 1;
  Condition.broadcast cond;
  Mutex.unlock mutex

let rec worker () : unit =
  Mutex.lock mutex;
  while Queue.is_empty queue do
    Condition.wait cond mutex
  done;
  let job = Queue.pop queue in
  Mutex.unlock mutex;
  exec job;
  worker ()

(* Grow the pool to [available () - 1] workers (the caller is the last
   domain). Domains are cheap to keep blocked and never shrink. *)
let ensure_workers () =
  let target = available () - 1 in
  while !spawned < target do
    incr spawned;
    ignore (Domain.spawn worker : unit Domain.t)
  done

(* Run every thunk, first one on the calling domain, rest through the
   queue; returns when all have completed. Exceptions are captured per
   slot and re-raised in slot order, so failure is deterministic too. *)
let run_all (thunks : (unit -> unit) array) =
  let n = Array.length thunks in
  if n = 0 then ()
  else if n = 1 || available () <= 1 then Array.iter (fun f -> f ()) thunks
  else begin
    ensure_workers ();
    Ssr_obs.Metrics.add m_tasks n;
    let exns : exn option array = Array.make n None in
    let region = { pending = n } in
    let wrap i =
      { body = (fun () -> try thunks.(i) () with e -> exns.(i) <- Some e); region }
    in
    Mutex.lock mutex;
    for i = 1 to n - 1 do
      Queue.push (wrap i) queue
    done;
    Condition.broadcast cond;
    Mutex.unlock mutex;
    exec (wrap 0);
    (* Help drain the queue while our region is outstanding: the stolen job
       may belong to any region, which is what keeps nested joins live. *)
    Mutex.lock mutex;
    while region.pending > 0 do
      if Queue.is_empty queue then Condition.wait cond mutex
      else begin
        let job = Queue.pop queue in
        Mutex.unlock mutex;
        exec job;
        Mutex.lock mutex
      end
    done;
    Mutex.unlock mutex;
    Array.iter (function Some e -> raise e | None -> ()) exns
  end

(* ------------------------------------------------------------------ *)
(* Combinators                                                         *)
(* ------------------------------------------------------------------ *)

let both f g =
  if available () <= 1 then begin
    let a = f () in
    let b = g () in
    (a, b)
  end
  else begin
    let ra = ref None and rb = ref None in
    run_all [| (fun () -> ra := Some (f ())); (fun () -> rb := Some (g ())) |];
    match (!ra, !rb) with
    | Some a, Some b -> (a, b)
    | _ -> assert false
  end

let init n f =
  if n < 0 then invalid_arg "Par.init: negative length";
  let w = available () in
  if w <= 1 || n <= 1 then Array.init n f
  else begin
    (* Contiguous chunks into fixed slots: result is position-determined,
       never schedule-determined. *)
    let chunks = min w n in
    let results = Array.make chunks [||] in
    run_all
      (Array.init chunks (fun ci () ->
           let lo = ci * n / chunks and hi = (ci + 1) * n / chunks in
           results.(ci) <- Array.init (hi - lo) (fun j -> f (lo + j))));
    Array.concat (Array.to_list results)
  end

let map_array f arr = init (Array.length arr) (fun i -> f arr.(i))

let map_list f l = Array.to_list (map_array f (Array.of_list l))
