module Prng = Ssr_util.Prng
module Hashing = Ssr_util.Hashing
module Buf = Ssr_util.Buf
module Multiset = Ssr_setrecon.Multiset

type t = { parent : int array; kids : int list array }

let build_kids parent =
  let n = Array.length parent in
  let kids = Array.make n [] in
  for v = n - 1 downto 0 do
    let p = parent.(v) in
    if p >= 0 then kids.(p) <- v :: kids.(p)
  done;
  kids

let of_parents parent =
  let n = Array.length parent in
  Array.iteri
    (fun v p ->
      if p = v || p < -1 || p >= n then invalid_arg "Forest.of_parents: bad parent entry")
    parent;
  (* Cycle check: walk up from every vertex with a step budget. *)
  Array.iteri
    (fun v _ ->
      let steps = ref 0 in
      let cur = ref v in
      while !cur >= 0 do
        incr steps;
        if !steps > n then invalid_arg "Forest.of_parents: cycle";
        cur := parent.(!cur)
      done)
    parent;
  { parent = Array.copy parent; kids = build_kids parent }

let parents t = Array.copy t.parent

let n t = Array.length t.parent

let num_edges t = Array.fold_left (fun acc p -> if p >= 0 then acc + 1 else acc) 0 t.parent

let roots t =
  let out = ref [] in
  Array.iteri (fun v p -> if p < 0 then out := v :: !out) t.parent;
  List.rev !out

let children t v = t.kids.(v)

let depth t v =
  let rec go v acc = if t.parent.(v) < 0 then acc else go t.parent.(v) (acc + 1) in
  go v 0

let max_depth t =
  let n = Array.length t.parent in
  let memo = Array.make n (-1) in
  let rec d v =
    if memo.(v) >= 0 then memo.(v)
    else begin
      let r = if t.parent.(v) < 0 then 0 else 1 + d t.parent.(v) in
      memo.(v) <- r;
      r
    end
  in
  let best = ref 0 in
  for v = 0 to n - 1 do
    best := max !best (d v)
  done;
  !best

let height t v =
  let rec go v = List.fold_left (fun acc c -> max acc (1 + go c)) 0 t.kids.(v) in
  go v

let equal_labeled a b = a.parent = b.parent

(* AHU canonical labels: label(v) = "(" sorted-concat children ")" *)
let canonical_labels t =
  let n = Array.length t.parent in
  let memo = Array.make n "" in
  let rec label v =
    if memo.(v) <> "" then memo.(v)
    else begin
      let subs = List.sort compare (List.map label t.kids.(v)) in
      let l = "(" ^ String.concat "" subs ^ ")" in
      memo.(v) <- l;
      l
    end
  in
  Array.init n label

let canonical_root_labels t =
  let labels = canonical_labels t in
  List.sort compare (List.map (fun r -> labels.(r)) (roots t))

let isomorphic a b = canonical_root_labels a = canonical_root_labels b

(* Probability that a vertex of {!random} starts a new tree. *)
let root_bias = 0.1

let random rng ~n ~max_depth () =
  if n < 0 then invalid_arg "Forest.random: negative n";
  let parent = Array.make n (-1) in
  let depth = Array.make n 0 in
  for v = 1 to n - 1 do
    if Prng.bernoulli rng root_bias then parent.(v) <- -1
    else begin
      (* Uniform eligible earlier vertex. *)
      let eligible = ref [] in
      for w = 0 to v - 1 do
        if depth.(w) < max_depth then eligible := w :: !eligible
      done;
      match !eligible with
      | [] -> parent.(v) <- -1
      | es ->
        let arr = Array.of_list es in
        let p = arr.(Prng.int_below rng (Array.length arr)) in
        parent.(v) <- p;
        depth.(v) <- depth.(p) + 1
    end
  done;
  of_parents parent

let random_updates rng ?max_depth:cap t k =
  let cur = ref t in
  let applied = ref 0 in
  let guard = ref 0 in
  while !applied < k && !guard < 1000 * (k + 1) do
    incr guard;
    let f = !cur in
    let nn = Array.length f.parent in
    if nn > 1 then begin
      let try_delete () =
        let non_roots = List.filter (fun v -> f.parent.(v) >= 0) (List.init nn (fun i -> i)) in
        match non_roots with
        | [] -> false
        | vs ->
          let arr = Array.of_list vs in
          let v = arr.(Prng.int_below rng (Array.length arr)) in
          let p = parents f in
          p.(v) <- -1;
          cur := of_parents p;
          true
      in
      let try_insert () =
        match roots f with
        | [] | [ _ ] when num_edges f = nn - 1 -> false
        | rs -> (
          let rs = Array.of_list rs in
          let r = rs.(Prng.int_below rng (Array.length rs)) in
          (* Candidate attachment points: outside r's subtree, and within
             the depth budget if capped. *)
          let in_subtree = Array.make nn false in
          let rec mark v =
            in_subtree.(v) <- true;
            List.iter mark f.kids.(v)
          in
          mark r;
          let hr = height f r in
          let ok v =
            (not in_subtree.(v))
            && match cap with None -> true | Some c -> depth f v + 1 + hr <= c
          in
          let candidates = List.filter ok (List.init nn (fun i -> i)) in
          match candidates with
          | [] -> false
          | cs ->
            let arr = Array.of_list cs in
            let v = arr.(Prng.int_below rng (Array.length arr)) in
            let p = parents f in
            p.(r) <- v;
            cur := of_parents p;
            true)
      in
      let did = if Prng.bool rng then try_delete () || try_insert () else try_insert () || try_delete () in
      if did then incr applied
    end
    else applied := k
  done;
  !cur

(* ---- Signatures and the multiset-of-multisets encoding ---- *)

let sig_tag = 0xF03E

let signature_hashes ~seed t =
  let nn = Array.length t.parent in
  let fn = Hashing.make ~seed ~tag:sig_tag in
  let memo = Array.make nn (-1) in
  let rec s v =
    if memo.(v) >= 0 then memo.(v)
    else begin
      let subs = List.sort compare (List.map s t.kids.(v)) in
      let h = Hashing.hash_bytes fn (Buf.of_int_list subs) land ((1 lsl 40) - 1) in
      memo.(v) <- h;
      h
    end
  in
  Array.init nn s

(* Element encoding inside a child multiset: low bit tags parent (1) vs
   child (0). *)
let parent_elt s = (s lsl 1) lor 1
let child_elt s = s lsl 1

let edge_encoding ~seed t =
  let sigs = signature_hashes ~seed t in
  List.init (Array.length t.parent) (fun v ->
      Multiset.of_list (parent_elt sigs.(v) :: List.map (fun c -> child_elt sigs.(c)) t.kids.(v)))

let reconstruct msets =
  (* Group the multisets: each distinct signature should own exactly one
     distinct child multiset, occurring as many times as the signature has
     vertices. *)
  let by_sig = Hashtbl.create 64 in
  let ok = ref true in
  List.iter
    (fun m ->
      let parents_in =
        List.filter (fun (e, _) -> e land 1 = 1) (Multiset.to_pairs m)
      in
      match parents_in with
      | [ (pe, 1) ] -> (
        let psig = pe lsr 1 in
        let child_sigs =
          List.concat_map
            (fun (e, k) -> if e land 1 = 0 then [ (e lsr 1, k) ] else [])
            (Multiset.to_pairs m)
        in
        match Hashtbl.find_opt by_sig psig with
        | None -> Hashtbl.add by_sig psig (child_sigs, 1)
        | Some (cs, k) -> if cs = child_sigs then Hashtbl.replace by_sig psig (cs, k + 1) else ok := false)
      | _ -> ok := false)
    msets;
  if not !ok then None
  else begin
    let total = List.length msets in
    (* Vertices per signature minus appearances as a child = root count. *)
    let as_child = Hashtbl.create 64 in
    Hashtbl.iter
      (fun _psig (child_sigs, k) ->
        List.iter
          (fun (cs, mult) ->
            let cur = try Hashtbl.find as_child cs with Not_found -> 0 in
            Hashtbl.replace as_child cs (cur + (k * mult)))
          child_sigs)
      by_sig;
    let parent_arr = Array.make total (-1) in
    let next = ref 0 in
    let exception Bad in
    (* Materialize one tree rooted at [s]; [stack] guards against cyclic
       (corrupt) signature graphs. *)
    let rec build s parent_idx stack =
      if List.mem s stack then raise Bad;
      if !next >= total then raise Bad;
      let v = !next in
      incr next;
      parent_arr.(v) <- parent_idx;
      match Hashtbl.find_opt by_sig s with
      | None -> raise Bad
      | Some (child_sigs, _) ->
        List.iter
          (fun (cs, mult) ->
            for _ = 1 to mult do
              build cs v (s :: stack)
            done)
          child_sigs
    in
    try
      Hashtbl.iter
        (fun psig (_, k) ->
          let child_occurrences = try Hashtbl.find as_child psig with Not_found -> 0 in
          let root_count = k - child_occurrences in
          if root_count < 0 then raise Bad;
          for _ = 1 to root_count do
            build psig (-1) []
          done)
        by_sig;
      if !next <> total then None else Some (of_parents parent_arr)
    with Bad -> None
  end
