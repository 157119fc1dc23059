module Prng = Ssr_util.Prng
module Iset = Ssr_util.Iset

(* Edge probability of the sparse random graph among non-hubs. *)
let internal_p = 0.02

let build rng ~n ~h ~d =
  let m = n - h in
  let gap = d + 2 in
  let k_min = max (m / 6) ((2 * (d + 2)) + 8) in
  let k_max = k_min + (h * gap) in
  if k_max > (17 * m) / 20 then failwith "Planted.separated_instance: n too small for h and d";
  let edges = ref [] in
  (* Hub i (vertex i) connects to exactly k_min + (h - i) * gap random
     non-hubs, so the sorted hub degrees are spaced exactly [gap] apart. *)
  for i = 0 to h - 1 do
    let k = k_min + ((h - i) * gap) in
    let targets = Iset.random_subset rng ~universe:m ~size:k in
    Iset.iter (fun t -> edges := (i, h + t) :: !edges) targets
  done;
  (* Sparse internal edges among non-hubs: they perturb degrees slightly but
     never touch a signature (signatures only record hub adjacency). *)
  let internal = Gnp.sample rng ~n:m ~p:internal_p in
  List.iter (fun (a, b) -> edges := (h + a, h + b) :: !edges) (Graph.edges internal);
  Graph.create ~n ~edges:!edges

let separated_instance rng ~n ~h ~d () =
  if h < 1 || n <= h then invalid_arg "Planted.separated_instance: bad h";
  let rec attempt k =
    if k = 0 then failwith "Planted.separated_instance: could not certify separation"
    else begin
      let g = build rng ~n ~h ~d in
      if Degree_order_sig.is_separated g ~h ~a:(d + 1) ~b:((2 * d) + 1) then g else attempt (k - 1)
    end
  in
  attempt 20

let perturbed_pair rng ~base ~d =
  let alice = Graph.flip_random_edges rng base (d / 2) in
  let bob = Graph.flip_random_edges rng base (d - (d / 2)) in
  (alice, bob)
