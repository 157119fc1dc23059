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

type params = { seed : int64; enc_seed : int64; d : int; u : int; h : int; s : int }

(* The one dispatch: each kind's two steps with its default tuning. Naive's
   direct encodings are seedless and cost less to write than to look up,
   and multiround's per-child tables are keyed by entry position, so only
   the nested kinds take the memo. *)
let steps ?memo kind p =
  let { seed; enc_seed; d; u; h; s } = p and d_hat = min p.d p.s in
  let nested plan = (Cascade.alice ?memo ~seed plan, Cascade.bob ?memo ~seed plan) in
  match kind with
  | Naive -> (Naive.alice ~seed ~d_hat ~u ~h, Naive.bob ~seed ~d_hat ~u ~h)
  | Iblt_of_iblts -> nested (Iblt_of_iblts.plan ~seed ~enc_seed ~d ~d_hat ~s_bound:s ~k:4)
  | Cascade -> nested (Cascade.plan ~seed ~enc_seed ~d ~d_hat ~s_bound:s ~u ~h ~k:3)
  | Multiround ->
    ( (fun st -> Comm.map ignore (Multiround.alice ~seed ~d ~d_hat ~primitive:Multiround.Auto st)),
      Multiround.bob ~seed ~d_hat )

let alice ?memo kind p = fst (steps ?memo kind p)
let bob ?memo kind p = snd (steps ?memo kind p)

let run_known_stream ?memo kind ~comm ~seed ~enc_seed ~d ~u ~h ~(alice : Parent.stream)
    ~(bob : Parent.stream) =
  let enc_seed = Option.value enc_seed ~default:seed and s = max 2 bob.Parent.length in
  let alice_step, bob_step = steps ?memo kind { seed; enc_seed; d; u; h; s } in
  Result.map
    (fun delta -> { delta; stats = Comm.stats comm })
    (Comm.drive comm ~alice:(alice_step alice) ~bob:(bob_step bob))

let run_known ?memo kind ~comm ~seed ~enc_seed ~d ~u ~h ~alice ~bob =
  Result.map
    (fun (o : stream_outcome) -> { recovered = Parent.apply_delta bob o.delta; stats = o.stats })
    (run_known_stream ?memo kind ~comm ~seed ~enc_seed ~d ~u ~h ~alice:(Parent.stream_of_t alice)
       ~bob:(Parent.stream_of_t bob))

let reconcile_known kind ~seed ~d ~u ~h ~alice ~bob () =
  Comm.run (fun comm -> run_known kind ~comm ~seed ~enc_seed:None ~d ~u ~h ~alice ~bob)

let doubling_params kind ~seed ~u ~h ~s ~d =
  let tag = if kind = Cascade then 0xCC0 else 0xD0 in
  let seed = Prng.derive ~seed ~tag:(tag + Bits.ceil_log2 (d + 1)) in
  { seed; enc_seed = seed; d; u; h; s }

let run_unknown kind ~comm ~seed ~u ~h ~alice ~bob =
  let a = Parent.stream_of_t alice and b = Parent.stream_of_t bob in
  let result =
    match kind with
    | Naive ->
      Comm.drive comm ~alice:(Naive.alice_unknown ~seed ~u ~h a) ~bob:(Naive.bob_unknown ~seed ~u ~h b)
    | Multiround ->
      Comm.drive comm ~alice:(Multiround.alice_unknown ~seed a) ~bob:(Multiround.bob_unknown ~seed b)
    | Iblt_of_iblts | Cascade ->
      (* Corollaries 3.6 and 3.8: double d from 1 until an attempt
         verifies, each attempt under its own per-bound seed. *)
      let s = max 2 b.Parent.length in
      Comm.retry_doubling comm
        ~retries:(Ssr_obs.Metrics.counter ("proto." ^ name kind ^ ".retries"))
        ~d:1
        ~stop:(fun ~attempt:_ ~d -> d > 1 lsl 22)
        (fun ~attempt:_ ~d ->
          let alice_step, bob_step = steps kind (doubling_params kind ~seed ~u ~h ~s ~d) in
          Comm.drive comm ~alice:(alice_step a) ~bob:(bob_step b))
  in
  Result.map (fun delta -> { recovered = Parent.apply_delta bob delta; stats = Comm.stats comm }) result

let reconcile_unknown kind ~seed ~u ~h ~alice ~bob () =
  Comm.run (fun comm -> run_unknown kind ~comm ~seed ~u ~h ~alice ~bob)

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

let report kind (run : unit -> (outcome, error) result) =
  let before = Ssr_obs.Metrics.snapshot () in
  let report_of stats =
    let metrics = Ssr_obs.Metrics.diff ~before ~after:(Ssr_obs.Metrics.snapshot ()) in
    { protocol = name kind; stats; per_round = Comm.per_round_bits stats; metrics }
  in
  match run () with
  | Ok o -> Ok (o, report_of o.stats)
  | Error (`Decode_failure stats) -> Error (`Decode_failure stats, report_of stats)
