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
   a negative one by an insert. The whole-set hash at the protocol layer
   guards the remaining failure modes. *)
let cancel_into e ~positives ~negatives =
  List.iter (fun key -> Iblt.delete e.tbl key) positives;
  List.iter (fun key -> Iblt.insert e.tbl key) negatives

let absorb t ?except ~positives ~negatives () =
  let out_pos = ref [] and out_neg = ref [] in
  (* Each key reaches each entry at most once, by a peel or by a
     cancellation: [reached] holds the (entry id, key) pairs already
     applied, and only keys not yet [seen] in this call are passed on.
     Without that, two entries that peel the same stuck key in one pass
     each cancel it into the other, which no longer holds it, and the
     phantom is handed back and forth without end. *)
  let reached = Hashtbl.create 64 and seen = Hashtbl.create 64 in
  let reach id keys =
    List.filter
      (fun key ->
        (not (Hashtbl.mem reached (id, key))) && (Hashtbl.replace reached (id, key) (); true))
      keys
  in
  let fresh keys =
    List.filter (fun key -> (not (Hashtbl.mem seen key)) && (Hashtbl.replace seen key (); true)) keys
  in
  ignore (fresh positives, fresh negatives);
  Option.iter (fun id -> ignore (reach id positives, reach id negatives)) except;
  (* Work queue of batches: every batch is applied to every live entry it
     has not yet reached, each entry is then re-peeled, and its fresh
     recoveries are enqueued as a new batch — a fixpoint that lets one
     attempt's recoveries unstick residuals stashed by any other
     attempt. *)
  let queue = Queue.create () in
  Queue.add (positives, negatives) queue;
  let recovered e (dec : Iblt.decoded) =
    ignore (reach e.id dec.Iblt.positives, reach e.id dec.Iblt.negatives);
    let pos = fresh dec.Iblt.positives and neg = fresh dec.Iblt.negatives in
    let n = List.length pos + List.length neg in
    if n > 0 then begin
      Metrics.add m_hits n;
      out_pos := pos @ !out_pos;
      out_neg := neg @ !out_neg;
      Queue.add (pos, neg) queue
    end
  in
  while not (Queue.is_empty queue) do
    let pos, neg = Queue.take queue in
    t.entries <-
      List.filter
        (fun e ->
          let positives = reach e.id pos and negatives = reach e.id neg in
          if positives = [] && negatives = [] then true
          else begin
            cancel_into e ~positives ~negatives;
            match Iblt.decode_partial e.tbl with
            | `Decoded dec ->
              recovered e dec;
              t.total <- t.total - e.live;
              false
            | `Salvaged (dec, r) ->
              recovered e dec;
              (* Only re-expand when something was peeled; otherwise the
                 entry is unchanged and the residual is identical. *)
              if dec.Iblt.positives <> [] || dec.Iblt.negatives <> [] then begin
                t.total <- t.total - e.live + Iblt.residual_cells r;
                e.tbl <- Iblt.residual_to_table r;
                e.live <- Iblt.residual_cells r
              end;
              true
          end)
        t.entries
  done;
  (!out_pos, !out_neg)
