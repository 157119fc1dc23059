module Hashing = Ssr_util.Hashing
module Bits = Ssr_util.Bits
module Buf = Ssr_util.Buf
module Metrics = Ssr_obs.Metrics

let m_queries = Metrics.counter "estimator.l0.queries"
let d_estimate = Metrics.dist "estimator.l0.estimate"
let d_abs_error = Metrics.dist "estimator.l0.abs_error"

(* Estimator accuracy is only measurable where the caller knows the true
   difference size (tests, benches, the CLI's synthetic workloads); they call
   this after querying so the report can show estimate-vs-truth error. *)
let record_accuracy ~estimate ~truth = Metrics.observe d_abs_error (abs (estimate - truth))

type shape = { levels : int; reps : int; buckets : int; threshold : int }

let default_shape = { levels = 24; reps = 3; buckets = 80; threshold = 8 }

type side = S1 | S2

(* 3 bits per bucket: 2 data bits + 1 always-zero padding bit, 20 buckets per
   native word. [low_mask] has bit 0 of every field; [data_mask] bits 0-1. *)
let buckets_per_word = 20

let low_mask =
  let rec go i acc = if i >= buckets_per_word then acc else go (i + 1) (acc lor (1 lsl (3 * i))) in
  go 0 0

let data_mask = low_mask lor (low_mask lsl 1)

type t = {
  shape : shape;
  words_per_sub : int;
  words : int array; (* levels * reps * words_per_sub *)
  level_fn : Hashing.fn;
  bucket_fns : Hashing.fn array; (* one per rep *)
  seed : int64;
}

let level_tag = 0xA0E5
let bucket_tag = 0xA0F0

let create ~seed ?(shape = default_shape) () =
  if shape.levels < 1 || shape.levels > 60 then invalid_arg "L0_estimator: levels out of range";
  if shape.reps < 1 then invalid_arg "L0_estimator: reps must be positive";
  if shape.buckets < 1 then invalid_arg "L0_estimator: buckets must be positive";
  let words_per_sub = Bits.ceil_div shape.buckets buckets_per_word in
  {
    shape;
    words_per_sub;
    words = Array.make (shape.levels * shape.reps * words_per_sub) 0;
    level_fn = Hashing.make ~seed ~tag:level_tag;
    bucket_fns = Array.init shape.reps (fun r -> Hashing.make ~seed ~tag:(bucket_tag + r));
    seed;
  }

let level_of t x =
  let h = Hashing.hash_int t.level_fn x in
  if h = 0 then t.shape.levels - 1 else min (Bits.lsb_index h) (t.shape.levels - 1)

let sub_offset t level rep = ((level * t.shape.reps) + rep) * t.words_per_sub

let update t side x =
  if x < 0 then invalid_arg "L0_estimator.update: negative element";
  let delta = match side with S1 -> 1 | S2 -> 3 in
  let level = level_of t x in
  for rep = 0 to t.shape.reps - 1 do
    let bucket = Hashing.to_range t.bucket_fns.(rep) t.shape.buckets x in
    let word = sub_offset t level rep + (bucket / buckets_per_word) in
    let off = 3 * (bucket mod buckets_per_word) in
    t.words.(word) <- (t.words.(word) + (delta lsl off)) land data_mask
  done

(* Batched {!update}: identical per-element semantics (including the
   per-update mask that keeps the padding bits clear — counters saturate
   per update, so the mask cannot be hoisted out of the loop), with the
   side delta and field lookups hoisted. *)
let update_all t side xs =
  let delta = match side with S1 -> 1 | S2 -> 3 in
  let reps = t.shape.reps and buckets = t.shape.buckets in
  let words = t.words in
  for i = 0 to Array.length xs - 1 do
    let x = Array.unsafe_get xs i in
    if x < 0 then invalid_arg "L0_estimator.update_all: negative element";
    let level = level_of t x in
    for rep = 0 to reps - 1 do
      let bucket = Hashing.to_range t.bucket_fns.(rep) buckets x in
      let word = sub_offset t level rep + (bucket / buckets_per_word) in
      let off = 3 * (bucket mod buckets_per_word) in
      words.(word) <- (words.(word) + (delta lsl off)) land data_mask
    done
  done

let merge a b =
  if a.seed <> b.seed || a.shape <> b.shape then invalid_arg "L0_estimator.merge: shape/seed mismatch";
  let out = { a with words = Array.copy a.words } in
  (* Padding bits are zero in both operands, so field sums stay below 8 and
     a single word-wise add-and-mask merges 20 counters at once. *)
  for w = 0 to Array.length out.words - 1 do
    out.words.(w) <- (a.words.(w) + b.words.(w)) land data_mask
  done;
  out

let nonzero_buckets t level rep =
  let base = sub_offset t level rep in
  let total = ref 0 in
  for w = 0 to t.words_per_sub - 1 do
    let x = t.words.(base + w) in
    total := !total + Bits.popcount ((x lor (x lsr 1)) land low_mask)
  done;
  !total

let level_count t level =
  (* Bucket collisions only cancel counters, so the max over replicated
     subroutines is the sharpest lower estimate of the level's l0 mass. *)
  let best = ref 0 in
  for rep = 0 to t.shape.reps - 1 do
    best := max !best (nonzero_buckets t level rep)
  done;
  !best

let query t =
  let counts = Array.init t.shape.levels (fun level -> level_count t level) in
  let rec deepest i = if i < 0 then None else if counts.(i) > t.shape.threshold then Some i else deepest (i - 1) in
  let estimate =
    match deepest (t.shape.levels - 1) with
    | Some i -> counts.(i) * (1 lsl (i + 1))
    | None ->
      (* Every level is sparse, hence collision-free with high probability; the
         levels partition the difference so the total is (near) exact. *)
      Array.fold_left ( + ) 0 counts
  in
  Metrics.incr m_queries;
  Metrics.observe d_estimate estimate;
  estimate

let query_opt t =
  if level_count t (t.shape.levels - 1) > t.shape.threshold then None else Some (query t)

let to_bytes t =
  let out = Bytes.create (8 * Array.length t.words) in
  Array.iteri (fun i w -> Buf.set_int_le out (i * 8) w) t.words;
  out

let of_bytes_opt ~seed ?shape bytes =
  let t = create ~seed ?shape () in
  if Bytes.length bytes <> 8 * Array.length t.words then None
  else begin
    (* Masking to the data bits keeps deserialization total on corrupted
       input (set padding bits would otherwise break the word-parallel
       query); the damage then shows up only as a skewed estimate, which the
       protocols' whole-set hash guard absorbs. *)
    Array.iteri
      (fun i _ -> t.words.(i) <- Int64.to_int (Bytes.get_int64_le bytes (i * 8)) land data_mask)
      t.words;
    Some t
  end

let of_bytes ~seed ?shape bytes =
  match of_bytes_opt ~seed ?shape bytes with
  | Some t -> t
  | None -> invalid_arg "L0_estimator.of_bytes: length mismatch"

let size_bits t = 64 * Array.length t.words

module Median = struct
  type outer = t

  type t = outer array

  let create ~seed ?shape ~copies () =
    if copies < 1 then invalid_arg "L0_estimator.Median.create: copies must be positive";
    Array.init copies (fun i ->
        create ~seed:(Ssr_util.Prng.derive ~seed ~tag:(0x3ED1A + i)) ?shape ())

  let update t side x = Array.iter (fun e -> update e side x) t

  let merge a b =
    if Array.length a <> Array.length b then invalid_arg "L0_estimator.Median.merge: copy mismatch";
    Array.init (Array.length a) (fun i -> merge a.(i) b.(i))

  let query t =
    let qs = Array.map query t in
    Array.sort compare qs;
    qs.(Array.length qs / 2)

  let copies t = t
end
