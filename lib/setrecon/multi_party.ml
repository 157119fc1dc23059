module Iset = Ssr_util.Iset
module Iblt = Ssr_sketch.Iblt

type outcome = { union : Iset.t; per_party : Iset.t array; stats : Comm.stats }

type error = [ `Decode_failure of int * Comm.stats ]

let pairwise_bound parties =
  let k = Array.length parties in
  let best = ref 0 in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      best := max !best (Iset.sym_diff_size parties.(i) parties.(j))
    done
  done;
  !best

(* The constant number of IBLT hash functions (Corollary 2.2). *)
let hashes = 4

let run_broadcast ~comm ~seed ~d ~parties =
  let np = Array.length parties in
  if np < 2 then invalid_arg "Multi_party.reconcile_broadcast: need at least 2 parties";
  (* All k^2 pairwise decodes must succeed, so the per-sketch size carries a
     union-bound margin over the single-pair sizing. *)
  let prm : Iblt.params =
    {
      cells = Iblt.recommended_cells ~k:hashes ~diff_bound:((2 * d) + (4 * np));
      k = hashes;
      key_len = 8;
      seed;
    }
  in
  let tables =
    Array.map
      (fun s ->
        let t = Iblt.create prm in
        Iblt.add_all_ints t (Iset.to_array s);
        t)
      parties
  in
  (* Every party broadcasts one sketch and one whole-set hash; every
     receiver works from the one copy the channel delivered. *)
  let delivered =
    Array.mapi
      (fun i t ->
        let payload = Comm.guarded [| t |] ~guard:(Set_recon.set_hash ~seed parties.(i)) in
        Comm.parse_guarded [| prm |] (Comm.xfer comm Comm.A_to_b ~label:"broadcast-iblt+hash" payload))
      tables
  in
  (* Each receiver reconciles against every sender. *)
  let failed = ref None in
  let per_party =
    Array.mapi
      (fun me mine ->
        let acc = ref mine in
        Array.iteri
          (fun sender msg ->
            if sender <> me && !failed = None then
              match msg with
              | None -> failed := Some sender
              | Some (their_table, their_hash) -> (
                match Iblt.decode_ints (Iblt.subtract their_table.(0) tables.(me)) with
                | Error `Peel_stuck -> failed := Some sender
                | Ok (pos, neg) ->
                  let sender_view =
                    Iset.apply_diff mine ~add:(Iset.of_list pos) ~del:(Iset.of_list neg)
                  in
                  if Set_recon.set_hash ~seed sender_view <> their_hash then failed := Some sender
                  else acc := Iset.union !acc (Iset.of_list pos)))
          delivered;
        !acc)
      parties
  in
  match !failed with
  | Some sender -> Error (`Decode_failure sender)
  | None ->
    let union = Array.fold_left Iset.union Iset.empty parties in
    (* Consistency: everyone must have converged on the union. *)
    if Array.for_all (Iset.equal union) per_party then
      Ok { union; per_party; stats = Comm.stats comm }
    else Error (`Decode_failure (-1))

let reconcile_broadcast ~seed ~d ~parties () =
  let comm = Comm.create () in
  match run_broadcast ~comm ~seed ~d ~parties with
  | Ok o -> Ok o
  | Error (`Decode_failure sender) -> Error (`Decode_failure (sender, Comm.stats comm))
