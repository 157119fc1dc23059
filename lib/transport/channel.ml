module Prng = Ssr_util.Prng
module Comm = Ssr_setrecon.Comm
module Metrics = Ssr_obs.Metrics

let m_dropped = Metrics.counter "channel.faults.dropped"
let m_corrupted = Metrics.counter "channel.faults.corrupted"
let m_truncated = Metrics.counter "channel.faults.truncated"
let m_duplicated = Metrics.counter "channel.faults.duplicated"

type fault =
  | Dropped
  | Corrupted of { copy : int; bit : int }
  | Truncated of { copy : int; kept : int }
  | Duplicated of { copies : int }

type event = {
  index : int;
  direction : Comm.direction;
  label : string;
  fault : fault;
}

type config = {
  seed : int64;
  drop_rate : float;
  corrupt_rate : float;
  truncate_rate : float;
  duplicate_rate : float;
  duplicate_copies : int;
}

let perfect =
  { seed = 0L; drop_rate = 0.; corrupt_rate = 0.; truncate_rate = 0.; duplicate_rate = 0.;
    duplicate_copies = 2 }

(* A probability outside [0, 1] would silently act as 0 or 1 in
   [Prng.bernoulli]; NaN fails both comparisons. *)
let check_rate fn name r =
  if not (r >= 0. && r <= 1.) then
    invalid_arg (Printf.sprintf "%s: %s rate %g is outside [0, 1]" fn name r)

let config_with ?(drop = 0.) ?(corrupt = 0.) ?(truncate = 0.) ?(duplicate = 0.)
    ?(duplicate_copies = 2) ~seed () =
  let fn = "Channel.config_with" in
  check_rate fn "drop" drop;
  check_rate fn "corrupt" corrupt;
  check_rate fn "truncate" truncate;
  check_rate fn "duplicate" duplicate;
  if duplicate_copies < 2 then invalid_arg "Channel.config_with: duplicate_copies must be >= 2";
  { seed; drop_rate = drop; corrupt_rate = corrupt; truncate_rate = truncate;
    duplicate_rate = duplicate; duplicate_copies }

type t = {
  cfg : config;
  mutable sent : int;
  mutable wire_bytes : int;
  mutable events : event list;
}

let create cfg = { cfg; sent = 0; wire_bytes = 0; events = [] }
let messages_sent t = t.sent
let bytes_sent t = t.wire_bytes
let events t = List.rev t.events

let record t index direction label fault =
  Metrics.incr
    (match fault with
    | Dropped -> m_dropped
    | Corrupted _ -> m_corrupted
    | Truncated _ -> m_truncated
    | Duplicated _ -> m_duplicated);
  t.events <- { index; direction; label; fault } :: t.events

(* Damage one delivery copy. Corruption and truncation are independent; the
   PRNG draw order here is fixed, so a given (seed, message index, copy)
   always produces the same damage — the replay-by-seed guarantee. The
   [copy] tag in each recorded event says which delivery the damage landed
   on, so a receiver-side dedup layer can be checked against labeled ground
   truth. *)
let damage t rng index direction label ~copy bytes =
  let bytes =
    if Bytes.length bytes > 0 && Prng.bernoulli rng t.cfg.corrupt_rate then begin
      let bit = Prng.int_below rng (8 * Bytes.length bytes) in
      record t index direction label (Corrupted { copy; bit });
      let out = Bytes.copy bytes in
      let byte = bit / 8 and mask = 1 lsl (bit mod 8) in
      Bytes.set out byte (Char.chr (Char.code (Bytes.get out byte) lxor mask));
      out
    end
    else Bytes.copy bytes
  in
  if Bytes.length bytes > 0 && Prng.bernoulli rng t.cfg.truncate_rate then begin
    let kept = Prng.int_below rng (Bytes.length bytes) in
    record t index direction label (Truncated { copy; kept });
    Bytes.sub bytes 0 kept
  end
  else bytes

let transmit t direction ~label payload =
  let index = t.sent in
  t.sent <- t.sent + 1;
  (* A per-message generator keyed by the message index makes the fault
     sequence independent of payload contents and sizes: replaying a seed
     against the same message sequence replays the same faults even if the
     payload bytes differ. *)
  let rng = Prng.create ~seed:(Prng.derive ~seed:t.cfg.seed ~tag:(0xFA17 + index)) in
  if Prng.bernoulli rng t.cfg.drop_rate then begin
    record t index direction label Dropped;
    (* The sender still put the full message on the wire; the drop happened
       en route. *)
    t.wire_bytes <- t.wire_bytes + Bytes.length payload;
    []
  end
  else begin
    let copies =
      if Prng.bernoulli rng t.cfg.duplicate_rate then begin
        record t index direction label (Duplicated { copies = t.cfg.duplicate_copies });
        t.cfg.duplicate_copies
      end
      else 1
    in
    (* Each copy traverses the wire whole; truncation is receive-side
       damage, not fewer bytes sent. *)
    t.wire_bytes <- t.wire_bytes + (copies * Bytes.length payload);
    List.init copies (fun copy -> damage t rng index direction label ~copy payload)
  end

let transport t : Comm.transport =
  {
    overhead_bits = 8 * Frame.overhead_bytes;
    transmit =
      (fun direction ~label payload ->
        transmit t direction ~label (Frame.encode payload)
        |> List.find_map (fun delivery ->
               match Frame.decode delivery with Ok p -> Some p | Error _ -> None));
  }

let raw_transport t : Comm.transport =
  {
    overhead_bits = 0;
    transmit =
      (fun direction ~label payload ->
        match transmit t direction ~label payload with
        | [] -> None
        | delivery :: _ -> Some delivery);
  }
