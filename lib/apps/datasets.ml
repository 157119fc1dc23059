(* Seeded, offline workload generators for million-element experiments.

   Every family is a pure function of (seed, position): a child is
   re-derivable from its index alone, so the streams are resumable from any
   position, identical at any parallel-pool size, and never require the
   harness to materialize a whole parent set. Each generator guarantees
   pairwise-distinct children structurally (a per-child identity element),
   which is the [Parent.stream] contract. *)

module Iset = Ssr_util.Iset
module Hashing = Ssr_util.Hashing
module Parent = Ssr_core.Parent

type instance = {
  stream : Parent.stream;
  universe : int;
  max_child_size : int;
}

(* --- GraphChallenge-style edge-list graphs ------------------------------ *)

let graph ~seed ~nodes ~avg_degree =
  if nodes < 1 then invalid_arg "Datasets.graph: nodes must be positive";
  if avg_degree < 1 then invalid_arg "Datasets.graph: avg_degree must be positive";
  let fn_deg = Hashing.make ~seed ~tag:0x6A01 in
  let fn_nbr = Hashing.make ~seed ~tag:0x6A02 in
  (* Degrees are uniform in [1, 2*avg_degree) (mean ~ avg_degree), with a
     ~1% population of 8x hubs for the skew real edge lists show. The hub
     coin reuses fn_deg on the disjoint input range [nodes, 2*nodes). *)
  let degree i =
    let d = max 1 (Hashing.to_range fn_deg (2 * avg_degree) i) in
    let d = if Hashing.to_range fn_deg (97 * nodes) (i + nodes) < nodes then d * 8 else d in
    min d nodes
  in
  (* (i, j) -> unique hash input: stride exceeds the max degree 16*avg. *)
  let stride = (16 * avg_degree) + 1 in
  let child i =
    let deg = degree i in
    let nbrs = List.init deg (fun j -> Hashing.to_range fn_nbr nodes ((i * stride) + j)) in
    (* nodes + i is node i's identity marker: out-neighbourhoods may
       coincide, the marker keeps children pairwise distinct. *)
    Iset.of_list ((nodes + i) :: nbrs)
  in
  {
    stream = { Parent.length = nodes; child };
    universe = 2 * nodes;
    max_child_size = 1 + min nodes (16 * avg_degree);
  }

(* --- Zipf-skewed child sizes ------------------------------------------- *)

let zipf ~seed ~parents ~universe ~max_child_size ~alpha =
  if parents < 1 then invalid_arg "Datasets.zipf: parents must be positive";
  if universe <= parents then invalid_arg "Datasets.zipf: universe must exceed parents";
  if max_child_size < 1 then invalid_arg "Datasets.zipf: max_child_size must be positive";
  if alpha < 0.0 then invalid_arg "Datasets.zipf: alpha must be non-negative";
  let fn_rank = Hashing.make ~seed ~tag:0x21F1 in
  let fn_elt = Hashing.make ~seed ~tag:0x21F2 in
  (* Child i's size is max_child_size / (rank+1)^alpha for a pseudo-random
     rank in [0, min(parents, 64)): a thin population of large children
     and a long tail of small ones (alpha = 0 makes every child
     full-size). Bounding the rank domain keeps the mean size a useful
     fraction of max_child_size at any parent count — ranks over all of
     [0, parents) would drive the mean to h*ln(s)/s, i.e. almost every
     child a singleton at scale. *)
  let rank_range = min parents 64 in
  let size i =
    let rank = Hashing.to_range fn_rank rank_range i in
    let s =
      int_of_float (float_of_int max_child_size /. ((1.0 +. float_of_int rank) ** alpha))
    in
    max 1 (min max_child_size s)
  in
  let child i =
    (* Element i (< parents) is child i's identity; the rest hash into the
       disjoint range [parents, universe). *)
    let extra =
      List.init (size i - 1) (fun j ->
          parents + Hashing.to_range fn_elt (universe - parents) ((i * max_child_size) + j))
    in
    Iset.of_list (i :: extra)
  in
  { stream = { Parent.length = parents; child }; universe; max_child_size }

(* --- Document-shingle corpora ------------------------------------------ *)

let shingle_corpus ~seed ~docs ~shingles_per_doc ~overlap =
  if docs < 1 then invalid_arg "Datasets.shingle_corpus: docs must be positive";
  if shingles_per_doc < 1 then
    invalid_arg "Datasets.shingle_corpus: shingles_per_doc must be positive";
  if overlap < 0.0 || overlap > 1.0 then
    invalid_arg "Datasets.shingle_corpus: overlap must be in [0, 1]";
  let pool_size = 8 * shingles_per_doc in
  (* Keep at least one doc-unique shingle so children stay distinct even at
     overlap = 1. *)
  let shared_count =
    min (shingles_per_doc - 1)
      (int_of_float (overlap *. float_of_int shingles_per_doc))
  in
  let unique_count = shingles_per_doc - shared_count in
  let fn_pool = Hashing.make ~seed ~tag:0x5C01 in
  let child i =
    let shared =
      List.init shared_count (fun j ->
          Hashing.to_range fn_pool pool_size ((i * shingles_per_doc) + j))
    in
    let unique = List.init unique_count (fun j -> pool_size + (i * shingles_per_doc) + j) in
    Iset.of_list (List.rev_append shared unique)
  in
  {
    stream = { Parent.length = docs; child };
    universe = pool_size + (docs * shingles_per_doc);
    max_child_size = shingles_per_doc;
  }

(* --- Perturbed twins ---------------------------------------------------- *)

let pair ~seed ~edits inst =
  if edits < 0 then invalid_arg "Datasets.pair: edits must be non-negative";
  let st = inst.stream in
  if edits > 0 && st.Parent.length = 0 then
    invalid_arg "Datasets.pair: cannot edit an empty stream";
  let fn = Hashing.make ~seed ~tag:0xED17 in
  (* Every edit adds the fresh element universe + e to a pseudo-random
     child: fresh elements are pairwise distinct and above the base
     universe, so edited children stay distinct from each other and from
     every unedited child, and exactly [edits] element slots differ. The
     table is the only state: O(edits) memory, and the resulting child
     function stays a pure function of position. *)
  let tbl = Hashtbl.create (max 16 (2 * edits)) in
  for e = 0 to edits - 1 do
    let pos = Hashing.to_range fn st.Parent.length e in
    let prev = Option.value (Hashtbl.find_opt tbl pos) ~default:[] in
    Hashtbl.replace tbl pos ((inst.universe + e) :: prev)
  done;
  let max_adds = Hashtbl.fold (fun _ l acc -> max acc (List.length l)) tbl 0 in
  let child i =
    let c = st.Parent.child i in
    match Hashtbl.find_opt tbl i with
    | None -> c
    | Some adds -> List.fold_left (fun acc e -> Iset.add e acc) c adds
  in
  {
    stream = { Parent.length = st.Parent.length; child };
    universe = inst.universe + edits;
    max_child_size = inst.max_child_size + max_adds;
  }

(* --- Document shingling (streamed) -------------------------------------- *)

let words text =
  let buf = Buffer.create 16 in
  let out = ref [] in
  let flush () =
    if Buffer.length buf > 0 then begin
      out := Buffer.contents buf :: !out;
      Buffer.clear buf
    end
  in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | '0' .. '9' -> Buffer.add_char buf c
      | 'A' .. 'Z' -> Buffer.add_char buf (Char.lowercase_ascii c)
      | _ -> flush ())
    text;
  flush ();
  List.rev !out

let shingle_hash_fn = Hashing.make ~seed:0x5417D0C5L ~tag:0

let shingle_seq ~k text =
  if k < 1 then invalid_arg "Datasets.shingle_seq: k must be positive";
  let ws = Array.of_list (words text) in
  let len = Array.length ws in
  if len = 0 then Seq.empty
  else
    let count = max 1 (len - k + 1) in
    Seq.init count (fun i ->
        let parts = Array.to_list (Array.sub ws i (min k (len - i))) in
        Hashing.hash_bytes shingle_hash_fn (Bytes.of_string (String.concat "\x00" parts)))
