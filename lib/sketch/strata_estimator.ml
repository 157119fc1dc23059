module Hashing = Ssr_util.Hashing
module Bits = Ssr_util.Bits
module Metrics = Ssr_obs.Metrics

let m_queries = Metrics.counter "estimator.strata.queries"
let d_estimate = Metrics.dist "estimator.strata.estimate"
let d_abs_error = Metrics.dist "estimator.strata.abs_error"

let record_accuracy ~estimate ~truth = Metrics.observe d_abs_error (abs (estimate - truth))

type t = { strata : Iblt.t array; level_fn : Hashing.fn; seed : int64 }

let level_tag = 0x57A7
let table_tag = 0x57B0

(* 32 strata of 40-cell, 3-hash IBLTs: close to the reference
   implementation's 80x32 but sized for the universes used here. *)
let strata = 32
let cells_per_stratum = 40

let create ~seed () =
  let prm level : Iblt.params =
    { cells = cells_per_stratum; k = 3; key_len = 8; seed = Ssr_util.Prng.derive ~seed ~tag:(table_tag + level) }
  in
  {
    strata = Array.init strata (fun level -> Iblt.create (prm level));
    level_fn = Hashing.make ~seed ~tag:level_tag;
    seed;
  }

let level t x =
  let h = Hashing.hash_int t.level_fn x in
  let max_level = strata - 1 in
  if h = 0 then max_level else min (Bits.lsb_index h) max_level

let add t x = Iblt.insert_int t.strata.(level t x) x

let add_all t xs = Array.iter (add t) xs

let estimate ~local ~remote =
  let top = strata - 1 in
  let rec walk i acc =
    if i < 0 then acc (* every stratum decoded: the estimate is exact *)
    else
      let diff = Iblt.subtract local.strata.(i) remote.strata.(i) in
      match Iblt.decode diff with
      | Ok { positives; negatives } -> walk (i - 1) (acc + List.length positives + List.length negatives)
      | Error `Peel_stuck -> (1 lsl (i + 1)) * max acc 1
  in
  let estimate = walk top 0 in
  Metrics.incr m_queries;
  Metrics.observe d_estimate estimate;
  estimate

let size_bits t = Array.fold_left (fun acc s -> acc + Iblt.size_bits s) 0 t.strata
