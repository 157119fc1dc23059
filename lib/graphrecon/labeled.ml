module Graph = Ssr_graphs.Graph
module Set_recon = Ssr_setrecon.Set_recon
module Comm = Ssr_setrecon.Comm

type outcome = { recovered : Graph.t; stats : Comm.stats }

type error = [ `Decode_failure of Comm.stats ]

let check alice bob =
  if Graph.n alice <> Graph.n bob then invalid_arg "Labeled.reconcile: vertex count mismatch"

let lift n = function
  | Ok (o : Set_recon.outcome) ->
    Ok { recovered = Graph.of_edge_ids ~n o.Set_recon.recovered; stats = o.Set_recon.stats }
  | Error (`Decode_failure stats) -> Error (`Decode_failure stats)

let reconcile_known_d ~seed ~d ~alice ~bob () =
  check alice bob;
  lift (Graph.n alice)
    (Set_recon.reconcile_known_d ~seed ~d ~alice:(Graph.edge_ids alice) ~bob:(Graph.edge_ids bob) ())
