module Iset = Ssr_util.Iset
module Hashing = Ssr_util.Hashing
module Prng = Ssr_util.Prng
module Buf = Ssr_util.Buf
module Iblt = Ssr_sketch.Iblt
module Iblt_stash = Ssr_sketch.Iblt_stash

let retries = Ssr_obs.Metrics.counter "proto.set.retries"
let m_salvage_attempts = Ssr_obs.Metrics.counter "proto.set.salvage.attempts"
let m_salvage_keys = Ssr_obs.Metrics.counter "proto.set.salvage.keys"

type outcome = {
  recovered : Iset.t;
  alice_minus_bob : Iset.t;
  bob_minus_alice : Iset.t;
  stats : Comm.stats;
}

type error = [ `Decode_failure of Comm.stats ]

let set_hash_tag = 0x5E7A

let set_hash ~seed s = Iset.digest (Hashing.make ~seed ~tag:set_hash_tag) s

let iblt_params ~seed ~d ~k : Iblt.params =
  { cells = Iblt.recommended_cells ~k ~diff_bound:d; k; key_len = 8; seed }

(* Core one-message exchange; [comm] lets callers embed this in a larger
   transcript (the unknown-d and doubling wrappers below, two-way
   reconciliation's first leg, and [lib/transport]'s escalation ladder).
   Alice's table and whole-set hash travel as one guarded message, and
   Bob's side is computed from the delivered bytes, so an attached
   transport carries — and can damage — exactly what a deployment would
   put on the wire. *)
let run_known_d ~comm ~seed ~d ~k ~alice ~bob =
  let prm = iblt_params ~seed ~d ~k in
  let table = Iblt.create prm in
  Iblt.add_all_ints table (Iset.to_array alice);
  let payload = Comm.guarded [| table |] ~guard:(set_hash ~seed alice) in
  match Comm.parse_guarded [| prm |] (Comm.xfer comm Comm.A_to_b ~label:"iblt+hash" payload) with
  | None -> Error `Decode_failure
  | Some (received, alice_hash) -> (
    (* Deleting Bob's elements from the parsed table in place is the same
       signed multiset as building a second table and subtracting (insert
       and delete are one operation with opposite signs), but skips
       allocating and copying a full table. *)
    let table = received.(0) in
    Iblt.delete_all_ints table (Iset.to_array bob);
    match Iblt.decode_ints table with
    | Error `Peel_stuck -> Error `Decode_failure
    | Ok (pos, neg) ->
      let alice_minus_bob = Iset.of_list pos in
      let bob_minus_alice = Iset.of_list neg in
      let recovered = Iset.apply_diff bob ~add:alice_minus_bob ~del:bob_minus_alice in
      if set_hash ~seed recovered = alice_hash then
        Ok { recovered; alice_minus_bob; bob_minus_alice; stats = Comm.stats comm }
      else Error `Decode_failure)

let reconcile_known_d ~seed ~d ?(k = 4) ~alice ~bob () =
  Comm.run (fun comm -> run_known_d ~comm ~seed ~d ~k ~alice ~bob)

let run_unknown_d ~comm ~seed ~k ?estimator_shape ~headroom ~alice ~bob () =
  let payload = Comm.estimator ?shape:estimator_shape ~seed (Iset.to_array bob) in
  match
    Comm.estimate ?shape:estimator_shape ~seed (Iset.to_array alice)
      (Comm.xfer comm Comm.B_to_a ~label:"estimator" payload)
  with
  | None -> Error `Decode_failure
  | Some est ->
    run_known_d ~comm ~seed:(Prng.derive ~seed ~tag:1) ~d:(max 4 (headroom * est)) ~k ~alice ~bob

let reconcile_unknown_d ~seed ?(k = 4) ?estimator_shape ?(headroom = 2) ~alice ~bob () =
  Comm.run (fun comm -> run_unknown_d ~comm ~seed ~k ?estimator_shape ~headroom ~alice ~bob ())

(* ---- Salted-rehash salvage. ----

   The all-or-nothing protocols above waste everything a stalled peel did
   recover. The salvage runner keeps a working copy of Bob's set and, per
   attempt [i], re-derives the whole hash schedule from
   [Hashing.attempt_seed ~seed ~attempt:i] (both sides can, from public
   coins alone): Alice ships a fresh table sized only for the *remaining*
   difference bound, Bob applies whatever the partial decode extracts, and
   the stuck core goes into a bounded stash where later attempts' recoveries
   can still unstick it. A wrong salvaged key (an undetected checksum
   collision) is never silent: the whole-set hash arbitrates every attempt,
   and because the next salted table encodes [alice - bob_cur], a phantom
   key shows up as a fresh difference element and is removed by the very
   mechanism that introduced it. *)

type salvage = {
  orig_bob : Iset.t;
  mutable bob_cur : Iset.t;  (** Bob's set plus every verified-so-far recovery. *)
  stash : Iblt_stash.t;
  mutable remaining : int;  (** Current bound on [|alice Δ bob_cur|]. *)
  mutable salvaged_keys : int;  (** Keys recovered by partial decodes and the stash. *)
  mutable dry : int;  (** Consecutive attempts with zero recoveries. *)
}

let salvage_init ?(stash_capacity = 256) ~d ~bob () =
  {
    orig_bob = bob;
    bob_cur = bob;
    stash = Iblt_stash.create ~capacity:stash_capacity ();
    remaining = max 4 d;
    salvaged_keys = 0;
    dry = 0;
  }

let salvage_remaining sv = sv.remaining
let salvage_keys sv = sv.salvaged_keys

let conv_ints keys =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | key :: rest -> (
      match Buf.get_int_le_opt key 0 with
      | Some v when v >= 0 -> go (v :: acc) rest
      | _ -> None)
  in
  go [] keys

let run_salvage_attempt ~comm ~seed ~attempt ~k ~sv ~alice =
  Ssr_obs.Metrics.incr m_salvage_attempts;
  let aseed = Hashing.attempt_seed ~seed ~attempt in
  let prm = iblt_params ~seed:aseed ~d:sv.remaining ~k in
  let table = Iblt.create prm in
  Iblt.add_all_ints table (Iset.to_array alice);
  (* Bob's reply to an attempt that did not finish: a salvage-retry
     request carrying his residual-difference bound, the size Alice's next
     salted table must cover. *)
  let progress () =
    Comm.request_salvage comm ~bound:sv.remaining;
    Error `Progress
  in
  let stalled () =
    (* Zero progress. The first dry attempt is retried at the same size —
       an unlucky schedule (or an engineered one) usually yields to the
       salt alone — but a second consecutive dry attempt means the table
       is probably undersized, and the bound doubles so repeated stalls
       still terminate. *)
    sv.dry <- sv.dry + 1;
    if sv.dry >= 2 then sv.remaining <- 2 * sv.remaining;
    progress ()
  in
  (* The verification hash is salted with the protocol seed, not the
     attempt seed: it names the same target set across all attempts. *)
  let payload = Comm.guarded [| table |] ~guard:(set_hash ~seed alice) in
  match
    Comm.parse_guarded [| prm |] (Comm.xfer comm Comm.A_to_b ~label:"salvage-iblt+hash" payload)
  with
  | None -> progress ()
  | Some (received, alice_hash) -> (
    let table = received.(0) in
    Iblt.delete_all_ints table (Iset.to_array sv.bob_cur);
    let dec, residual =
      match Iblt.decode_partial table with
      | `Decoded dec -> (dec, None)
      | `Salvaged (dec, res) -> (dec, Some res)
    in
    match (conv_ints dec.Iblt.positives, conv_ints dec.Iblt.negatives) with
    | None, _ | _, None ->
      (* A peeled key that is not a valid element: corruption that slipped
         the cell checksums. Apply nothing and retry under a new salt. *)
      stalled ()
    | Some pos, Some neg ->
      (* Stash the stuck core first, then cancel this attempt's recoveries
         out of every *other* stashed residual (they are already gone from
         this one — the peel removed them). *)
      let except =
        match residual with None -> None | Some res -> Iblt_stash.offload sv.stash res
      in
      let stash_pos, stash_neg =
        Iblt_stash.absorb sv.stash ?except ~positives:dec.Iblt.positives
          ~negatives:dec.Iblt.negatives ()
      in
      (* Stash recoveries that fail integer decoding are dropped (their
         source residual was corrupt); the hash below keeps this honest. *)
      let stash_pos = Option.value (conv_ints stash_pos) ~default:[] in
      let stash_neg = Option.value (conv_ints stash_neg) ~default:[] in
      let add = Iset.of_list (pos @ stash_pos) and del = Iset.of_list (neg @ stash_neg) in
      let recovered_now = Iset.cardinal add + Iset.cardinal del in
      sv.bob_cur <- Iset.apply_diff sv.bob_cur ~add ~del;
      sv.salvaged_keys <- sv.salvaged_keys + recovered_now;
      Ssr_obs.Metrics.add m_salvage_keys recovered_now;
      if set_hash ~seed sv.bob_cur = alice_hash then
        Ok
          {
            recovered = sv.bob_cur;
            alice_minus_bob = Iset.diff sv.bob_cur sv.orig_bob;
            bob_minus_alice = Iset.diff sv.orig_bob sv.bob_cur;
            stats = Comm.stats comm;
          }
      else if recovered_now = 0 then stalled ()
      else begin
        sv.dry <- 0;
        sv.remaining <- max 4 (sv.remaining - recovered_now);
        progress ()
      end)

let reconcile_salvage ~seed ?(k = 4) ?(initial_d = 4) ?(max_attempts = 8) ?stash_capacity
    ~alice ~bob () =
  let comm = Comm.create () in
  let sv = salvage_init ?stash_capacity ~d:initial_d ~bob () in
  let rec attempt i =
    if i >= max_attempts then Error (`Decode_failure (Comm.stats comm))
    else
      match run_salvage_attempt ~comm ~seed ~attempt:i ~k ~sv ~alice with
      | Ok outcome -> Ok outcome
      | Error `Progress ->
        Ssr_obs.Metrics.incr retries;
        attempt (i + 1)
  in
  attempt 0

let reconcile_robust ~seed ?(k = 4) ?(initial_d = 4) ?(max_attempts = 16) ~alice ~bob () =
  Comm.run (fun comm ->
      Comm.retry_doubling comm ~retries ~d:initial_d
        ~stop:(fun ~attempt ~d:_ -> attempt >= max_attempts)
        (fun ~attempt ~d ->
          (* A fresh derived seed each attempt re-randomizes the hash
             functions, so a peeling failure is not repeated
             deterministically. *)
          run_known_d ~comm ~seed:(Prng.derive ~seed ~tag:(100 + attempt)) ~d ~k ~alice ~bob))
