module Metrics = Ssr_obs.Metrics

let m_hits = Metrics.counter "iblt.stash.hits"
let m_overflow = Metrics.counter "iblt.stash.overflow"

(* Entries are stored expanded (as tables) because every absorb round
   mutates them; [live] tracks the residual cell count from the entry's
   last peel for the capacity accounting. *)
type entry = { id : int; mutable tbl : Iblt.t; mutable live : int }

type t = {
  capacity : int;
  mutable entries : entry list; (* newest first *)
  mutable total : int; (* sum of [live] over entries *)
  mutable next_id : int;
}

let create ?(capacity = 256) () =
  if capacity < 0 then invalid_arg "Iblt_stash.create: negative capacity";
  { capacity; entries = []; total = 0; next_id = 0 }

let capacity t = t.capacity
let cells t = t.total
let entry_count t = List.length t.entries

let offload t r =
  let live = Iblt.residual_cells r in
  if live = 0 then None
  else if t.total + live > t.capacity then begin
    Metrics.incr m_overflow;
    None
  end
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    t.entries <- { id; tbl = Iblt.residual_to_table r; live } :: t.entries;
    t.total <- t.total + live;
    Some id
  end

(* Apply one batch of globally recovered keys to an entry. The batch keys
   carry the orientation of the attempt tables (positives = Alice-side), so
   a positive key still sitting in this entry is cancelled by a delete and
   a negative one by an insert. The caller guarantees each key reaches each
   entry at most once (see the [source] exemption in [absorb]); the
   whole-set hash at the protocol layer guards the remaining failure
   modes. *)
let cancel_into e ~positives ~negatives =
  List.iter (fun key -> Iblt.delete e.tbl key) positives;
  List.iter (fun key -> Iblt.insert e.tbl key) negatives

let absorb t ?except ~positives ~negatives () =
  let out_pos = ref [] and out_neg = ref [] in
  (* Work queue of (source entry id, batch); [source = except] for the
     caller's external batch, whose keys were already peeled out of that
     entry. Every batch is applied to every other live entry, each entry is
     then re-peeled, and its own recoveries are enqueued as a new batch —
     a fixpoint that lets one attempt's recoveries unstick residuals
     stashed by any other attempt. *)
  let queue = Queue.create () in
  Queue.add (except, positives, negatives) queue;
  while not (Queue.is_empty queue) do
    let source, pos, neg = Queue.take queue in
    if pos <> [] || neg <> [] then
      t.entries <-
        List.filter
          (fun e ->
            if Some e.id = source then true
            else begin
              cancel_into e ~positives:pos ~negatives:neg;
              match Iblt.decode_partial e.tbl with
              | `Decoded dec ->
                let n = List.length dec.Iblt.positives + List.length dec.Iblt.negatives in
                if n > 0 then begin
                  Metrics.add m_hits n;
                  out_pos := dec.Iblt.positives @ !out_pos;
                  out_neg := dec.Iblt.negatives @ !out_neg;
                  Queue.add (Some e.id, dec.Iblt.positives, dec.Iblt.negatives) queue
                end;
                t.total <- t.total - e.live;
                false
              | `Salvaged (dec, r) ->
                let n = List.length dec.Iblt.positives + List.length dec.Iblt.negatives in
                if n > 0 then begin
                  Metrics.add m_hits n;
                  out_pos := dec.Iblt.positives @ !out_pos;
                  out_neg := dec.Iblt.negatives @ !out_neg;
                  Queue.add (Some e.id, dec.Iblt.positives, dec.Iblt.negatives) queue;
                  (* Only re-expand when something was peeled; otherwise the
                     entry is unchanged and the residual is identical. *)
                  t.total <- t.total - e.live + Iblt.residual_cells r;
                  e.tbl <- Iblt.residual_to_table r;
                  e.live <- Iblt.residual_cells r
                end;
                true
            end)
          t.entries
  done;
  (!out_pos, !out_neg)
