module Iset = Ssr_util.Iset
module Prng = Ssr_util.Prng
module Graph = Ssr_graphs.Graph
module Sig = Ssr_graphs.Degree_order_sig
module Parent = Ssr_core.Parent
module Protocol = Ssr_core.Protocol
module Set_recon = Ssr_setrecon.Set_recon
module Comm = Ssr_setrecon.Comm

type outcome = { recovered : Graph.t; stats : Comm.stats }

type error = [ `Decode_failure of Comm.stats | `Not_separated of Comm.stats ]

(* The conforming labeling of Theorem 5.2: top-h vertices take their degree
   rank; the rest take h + (lexicographic rank of their signature). *)
let labeling_of_scheme (scheme : Sig.t) n =
  let perm = Array.make n (-1) in
  Array.iteri (fun rank v -> perm.(v) <- rank) scheme.Sig.top;
  Array.iteri (fun i (v, _) -> perm.(v) <- scheme.Sig.h + i) scheme.Sig.sigs;
  perm

let distinct_sigs (scheme : Sig.t) =
  let m = Array.length scheme.Sig.sigs in
  let rec ok i =
    i >= m - 1 || (Iset.compare (snd scheme.Sig.sigs.(i)) (snd scheme.Sig.sigs.(i + 1)) <> 0 && ok (i + 1))
  in
  ok 0

let labeled_view g ~h =
  let scheme = Sig.compute g ~h in
  if not (distinct_sigs scheme) then None
  else Some (Graph.relabel g (labeling_of_scheme scheme (Graph.n g)))

let reconcile ~seed ~d ~h ~alice ~bob () =
  if Graph.n alice <> Graph.n bob then invalid_arg "Degree_order.reconcile: size mismatch";
  let n = Graph.n alice in
  let scheme_a = Sig.compute alice ~h in
  let scheme_b = Sig.compute bob ~h in
  let fail_sep comm = Error (`Not_separated (Comm.stats comm)) in
  let comm = Comm.create () in
  if not (distinct_sigs scheme_a) then fail_sep comm
  else begin
    (* --- Signature reconciliation: a set of subsets of [h], at most d
       total element changes. --- *)
    let parent_a = Parent.of_children (Array.to_list (Array.map snd scheme_a.Sig.sigs)) in
    let parent_b = Parent.of_children (Array.to_list (Array.map snd scheme_b.Sig.sigs)) in
    if Parent.cardinal parent_a <> n - h || Parent.cardinal parent_b <> n - h then fail_sep comm
    else begin
      let labeled_alice = Graph.relabel alice (labeling_of_scheme scheme_a n) in
      match
        Protocol.reconcile_known Protocol.Cascade ~seed:(Prng.derive ~seed ~tag:1) ~d:(max 1 d)
          ~u:h ~h ~alice:parent_a ~bob:parent_b ()
      with
      | Error (`Decode_failure stats) -> Error (`Decode_failure stats)
      | Ok sig_outcome ->
        let alice_sigs =
          Array.of_list (Parent.children sig_outcome.Protocol.recovered)
        in
        (* Parent canonical order is Iset.compare order = the lex order Alice
           labeled with. *)
        (* --- Bob derives the conforming labeling. --- *)
        let perm = Array.make n (-1) in
        Array.iteri (fun rank v -> perm.(v) <- rank) scheme_b.Sig.top;
        let ambiguous = ref false in
        Array.iter
          (fun (v, s) ->
            let matches = ref [] in
            Array.iteri
              (fun idx sa -> if Iset.sym_diff_size s sa <= d then matches := idx :: !matches)
              alice_sigs;
            match !matches with
            | [ idx ] -> perm.(v) <- h + idx
            | _ -> ambiguous := true)
          scheme_b.Sig.sigs;
        let used = Array.make n false in
        Array.iter (fun l -> if l >= 0 && l < n && not used.(l) then used.(l) <- true else ambiguous := true) perm;
        if !ambiguous then Error (`Not_separated sig_outcome.Protocol.stats)
        else begin
          let labeled_bob = Graph.relabel bob perm in
          (* --- Labeled edge reconciliation, in parallel (same round). --- *)
          match
            Set_recon.reconcile_known_d ~seed:(Prng.derive ~seed ~tag:2) ~d:(max 1 d)
              ~alice:(Graph.edge_ids labeled_alice) ~bob:(Graph.edge_ids labeled_bob) ()
          with
          | Error (`Decode_failure stats) ->
            Error (`Decode_failure (Comm.merge_stats sig_outcome.Protocol.stats stats))
          | Ok edge_outcome ->
            let recovered = Graph.of_edge_ids ~n edge_outcome.Set_recon.recovered in
            let stats = Comm.merge_stats sig_outcome.Protocol.stats edge_outcome.Set_recon.stats in
            Ok { recovered; stats }
        end
    end
  end
