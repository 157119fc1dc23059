module Bits = Ssr_util.Bits
module Prng = Ssr_util.Prng
module Comm = Ssr_setrecon.Comm

type kind = Naive | Iblt_of_iblts | Cascade | Multiround

let all = [ Naive; Iblt_of_iblts; Cascade; Multiround ]

let name = function
  | Naive -> "naive"
  | Iblt_of_iblts -> "iblt-of-iblts"
  | Cascade -> "cascade"
  | Multiround -> "multiround"

type outcome = { recovered : Parent.t; stats : Comm.stats }

type error = [ `Decode_failure of Comm.stats ]

type stream_outcome = { delta : Parent.delta; stats : Comm.stats }

(* The one dispatch: each protocol's single (streaming) build path with its
   default tuning. *)
let run_known_stream ?memo kind ~comm ~seed ~enc_seed ~d ~u ~h ~(alice : Parent.stream)
    ~(bob : Parent.stream) =
  let s_bound = max 2 bob.Parent.length in
  let d_hat = min d s_bound in
  let enc_seed = Option.value enc_seed ~default:seed in
  let nested plan =
    Result.map
      (fun (o : Cascade.outcome) -> { delta = o.Cascade.delta; stats = o.Cascade.stats })
      (Cascade.run_plan ~comm ~seed ?memo plan ~alice ~bob)
  in
  match kind with
  | Naive ->
    (* Direct encodings are seedless, so there is nothing to pin, and they
       cost less to write than to look up, so nothing to memoize. *)
    Result.map
      (fun (o : Naive.outcome) -> { delta = o.Naive.delta; stats = o.Naive.stats })
      (Naive.run_stream ~comm ~seed ~d_hat ~u ~h ~k:4 ~alice ~bob)
  | Iblt_of_iblts -> nested (Iblt_of_iblts.plan ~seed ~enc_seed ~d ~d_hat ~s_bound ~k:4)
  | Cascade -> nested (Cascade.plan ~seed ~enc_seed ~d ~d_hat ~s_bound ~u ~h ~k:3)
  | Multiround ->
    (* Per-child tables are keyed by entry position, not reusable. *)
    Result.map
      (fun (o : Multiround.outcome) -> { delta = o.Multiround.delta; stats = o.Multiround.stats })
      (Multiround.run_stream ~comm ~seed ~d ~d_hat ~k:4 ~shape:Multiround.default_child_shape
         ~primitive:Multiround.Auto ~alice ~bob)

let applied bob (o : stream_outcome) = { recovered = Parent.apply_delta bob o.delta; stats = o.stats }

let run_known ?memo kind ~comm ~seed ~enc_seed ~d ~u ~h ~alice ~bob =
  Result.map (applied bob)
    (run_known_stream ?memo kind ~comm ~seed ~enc_seed ~d ~u ~h ~alice:(Parent.stream_of_t alice)
       ~bob:(Parent.stream_of_t bob))

let reconcile_known kind ~seed ~d ~u ~h ~alice ~bob () =
  Comm.run (fun comm -> run_known kind ~comm ~seed ~enc_seed:None ~d ~u ~h ~alice ~bob)

(* Corollaries 3.6 and 3.8: double d from 1 until an attempt verifies,
   each attempt under its own per-bound seed. *)
let doubling kind ~tag ~seed ~u ~h ~alice ~bob =
  let comm = Comm.create () in
  let alice = Parent.stream_of_t alice and bob = Parent.stream_of_t bob in
  let retries = Ssr_obs.Metrics.counter ("proto." ^ name kind ^ ".retries") in
  Comm.retry_doubling comm ~retries ~d:1
    ~stop:(fun ~attempt:_ ~d -> d > 1 lsl 22)
    (fun ~attempt:_ ~d ->
      run_known_stream kind ~comm
        ~seed:(Prng.derive ~seed ~tag:(tag + Bits.ceil_log2 (d + 1)))
        ~enc_seed:None ~d ~u ~h ~alice ~bob)

let reconcile_unknown kind ~seed ~u ~h ~alice ~bob () =
  let result : (stream_outcome, error) result =
    match kind with
    | Naive ->
      Result.map
        (fun (o : Naive.outcome) -> { delta = o.Naive.delta; stats = o.Naive.stats })
        (Naive.reconcile_unknown ~seed ~u ~h ~alice ~bob ())
    | Iblt_of_iblts -> doubling kind ~tag:0xD0 ~seed ~u ~h ~alice ~bob
    | Cascade -> doubling kind ~tag:0xCC0 ~seed ~u ~h ~alice ~bob
    | Multiround ->
      Result.map
        (fun (o : Multiround.outcome) -> { delta = o.Multiround.delta; stats = o.Multiround.stats })
        (Multiround.reconcile_unknown ~seed ~alice ~bob ())
  in
  Result.map (applied bob) result

let reconcile_amplified kind ~seed ~d ~u ~h ~replicas ~alice ~bob () =
  if replicas < 1 then invalid_arg "Protocol.reconcile_amplified: replicas must be positive";
  (* All replicas run in parallel, so all of their traffic is spent; rounds
     do not stack. Replica 0 is run separately so the fold over the remaining
     replicas needs no impossible-empty-list branch. *)
  let replica i =
    reconcile_known kind ~seed:(Ssr_util.Prng.derive ~seed ~tag:(0xA2F + i)) ~d ~u ~h ~alice ~bob ()
  in
  let first = replica 0 in
  let rest = List.init (replicas - 1) (fun i -> replica (i + 1)) in
  let stats_of (r : (outcome, error) result) =
    match r with Ok o -> o.stats | Error (`Decode_failure st) -> st
  in
  let total_stats =
    List.fold_left (fun acc r -> Comm.merge_stats acc (stats_of r)) (stats_of first) rest
  in
  match List.find_opt Result.is_ok (first :: rest) with
  | Some (Ok o) -> Ok { o with stats = total_stats }
  | _ -> Error (`Decode_failure total_stats)

(* Observability wrappers: snapshot the process-wide metrics around a run and
   attach the delta, so callers get sketch/estimator/transport activity scoped
   to exactly this reconciliation without threading anything through the
   protocol code. *)
type cost_report = {
  protocol : string;
  stats : Comm.stats;
  per_round : (int * int * int) list;
  metrics : Ssr_obs.Metrics.snapshot;
}

let report_of ~protocol ~before stats =
  let after = Ssr_obs.Metrics.snapshot () in
  {
    protocol;
    stats;
    per_round = Comm.per_round_bits stats;
    metrics = Ssr_obs.Metrics.diff ~before ~after;
  }

let with_report ~protocol (run : unit -> (outcome, error) result) =
  let before = Ssr_obs.Metrics.snapshot () in
  match run () with
  | Ok o -> Ok (o, report_of ~protocol ~before o.stats)
  | Error (`Decode_failure stats) -> Error (`Decode_failure stats, report_of ~protocol ~before stats)

let reconcile_known_report kind ~seed ~d ~u ~h ~alice ~bob () =
  with_report ~protocol:(name kind) (reconcile_known kind ~seed ~d ~u ~h ~alice ~bob)

let reconcile_unknown_report kind ~seed ~u ~h ~alice ~bob () =
  with_report ~protocol:(name kind) (reconcile_unknown kind ~seed ~u ~h ~alice ~bob)
