module Iset = Ssr_util.Iset
module Prng = Ssr_util.Prng

type t = { n : int; adj : Iset.t array }

let check_vertex t v =
  if v < 0 || v >= t.n then invalid_arg "Graph: vertex out of range"

let create ~n ~edges =
  if n < 0 then invalid_arg "Graph.create: negative n";
  let buckets = Array.make n [] in
  List.iter
    (fun (a, b) ->
      if a = b then invalid_arg "Graph.create: self-loop";
      if a < 0 || a >= n || b < 0 || b >= n then invalid_arg "Graph.create: vertex out of range";
      buckets.(a) <- b :: buckets.(a);
      buckets.(b) <- a :: buckets.(b))
    edges;
  { n; adj = Array.map Iset.of_list buckets }

let n t = t.n

let neighbors t v =
  check_vertex t v;
  t.adj.(v)

let degree t v = Iset.cardinal (neighbors t v)

let degrees t = Array.init t.n (fun v -> Iset.cardinal t.adj.(v))

let num_edges t = Array.fold_left (fun acc s -> acc + Iset.cardinal s) 0 t.adj / 2

let has_edge t a b =
  check_vertex t a;
  check_vertex t b;
  Iset.mem b t.adj.(a)

let edges t =
  let out = ref [] in
  for a = t.n - 1 downto 0 do
    Iset.iter (fun b -> if a < b then out := (a, b) :: !out) t.adj.(a)
  done;
  List.sort compare !out

let add_edge t a b =
  if a = b then invalid_arg "Graph.add_edge: self-loop";
  check_vertex t a;
  check_vertex t b;
  if has_edge t a b then t
  else begin
    let adj = Array.copy t.adj in
    adj.(a) <- Iset.add b adj.(a);
    adj.(b) <- Iset.add a adj.(b);
    { t with adj }
  end

let remove_edge t a b =
  check_vertex t a;
  check_vertex t b;
  if not (has_edge t a b) then t
  else begin
    let adj = Array.copy t.adj in
    adj.(a) <- Iset.remove b adj.(a);
    adj.(b) <- Iset.remove a adj.(b);
    { t with adj }
  end

let toggle_edge t a b = if has_edge t a b then remove_edge t a b else add_edge t a b

let equal a b = a.n = b.n && a.adj = b.adj

let edge_id ~n a b =
  if a = b then invalid_arg "Graph.edge_id: self-loop";
  let lo = min a b and hi = max a b in
  (lo * n) + hi

let of_edge_id ~n id = (id / n, id mod n)

let edge_ids t = Iset.of_list (List.map (fun (a, b) -> edge_id ~n:t.n a b) (edges t))

let of_edge_ids ~n ids = create ~n ~edges:(List.map (of_edge_id ~n) (Iset.to_list ids))

let relabel t perm =
  if Array.length perm <> t.n then invalid_arg "Graph.relabel: bad permutation";
  create ~n:t.n ~edges:(List.map (fun (a, b) -> (perm.(a), perm.(b))) (edges t))

let edge_flip_distance a b =
  if a.n <> b.n then invalid_arg "Graph.edge_flip_distance: size mismatch";
  Iset.sym_diff_size (edge_ids a) (edge_ids b)

let flip_random_edges rng t k =
  if t.n < 2 && k > 0 then invalid_arg "Graph.flip_random_edges: too few vertices";
  let seen = Hashtbl.create (2 * k) in
  let g = ref t in
  let flipped = ref 0 in
  while !flipped < k do
    let a = Prng.int_below rng t.n in
    let b = Prng.int_below rng t.n in
    if a <> b then begin
      let key = edge_id ~n:t.n a b in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        g := toggle_edge !g a b;
        incr flipped
      end
    end
  done;
  !g
