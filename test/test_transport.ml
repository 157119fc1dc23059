(* Tests for the faulty-channel transport layer: framing, fault injection
   with replay-by-seed, and the self-healing reconciliation driver. Also the
   corruption properties of the satellite tasks: a flipped bit in any
   transmitted payload either leaves the protocol result correct or produces
   a detected failure — never a silently wrong answer. *)

module Prng = Ssr_util.Prng
module Iset = Ssr_util.Iset
module Codec = Ssr_util.Codec
module Crc32 = Ssr_util.Crc32
module Iblt = Ssr_sketch.Iblt
module L0 = Ssr_sketch.L0_estimator
module Comm = Ssr_setrecon.Comm
module Set_recon = Ssr_setrecon.Set_recon
module Parent = Ssr_core.Parent
module Protocol = Ssr_core.Protocol
module Encoding = Ssr_core.Encoding
module Frame = Ssr_transport.Frame
module Channel = Ssr_transport.Channel
module Clock = Ssr_transport.Clock
module Network = Ssr_transport.Network
module Arq = Ssr_transport.Arq
module Resilient = Ssr_transport.Resilient

let seed = 0x74A1590A7L

let flip_bit bytes bit =
  let out = Bytes.copy bytes in
  let byte = bit / 8 and mask = 1 lsl (bit mod 8) in
  Bytes.set out byte (Char.chr (Char.code (Bytes.get out byte) lxor mask));
  out

(* ---------- Frame ---------- *)

let test_frame_roundtrip () =
  let rng = Prng.create ~seed in
  for _ = 1 to 50 do
    let n = Prng.int_below rng 200 in
    let payload = Bytes.init n (fun _ -> Char.chr (Prng.int_below rng 256)) in
    match Frame.decode (Frame.encode payload) with
    | Ok p -> Alcotest.(check bytes) "roundtrip" payload p
    | Error e -> Alcotest.failf "frame rejected its own encoding: %s" (Frame.error_to_string e)
  done

let test_frame_single_bit_flips_detected () =
  (* CRC-32 detects every single-bit error, so every flipped bit of a frame
     must be rejected (a flip in the version or length fields is caught by
     those checks instead; all paths are typed errors). *)
  let payload = Bytes.of_string "reconciling graphs and sets of sets" in
  let frame = Frame.encode payload in
  for bit = 0 to (8 * Bytes.length frame) - 1 do
    match Frame.decode (flip_bit frame bit) with
    | Ok _ -> Alcotest.failf "bit %d flip went undetected" bit
    | Error _ -> ()
  done

let test_frame_truncation_detected () =
  let frame = Frame.encode (Bytes.of_string "payload bytes") in
  for keep = 0 to Bytes.length frame - 1 do
    match Frame.decode (Bytes.sub frame 0 keep) with
    | Ok _ -> Alcotest.failf "truncation to %d bytes went undetected" keep
    | Error _ -> ()
  done;
  (match Frame.decode (Bytes.cat frame (Bytes.make 1 'x')) with
  | Ok _ -> Alcotest.fail "extension went undetected"
  | Error _ -> ());
  match Frame.decode Bytes.empty with
  | Ok _ -> Alcotest.fail "empty input accepted"
  | Error _ -> ()

let test_frame_empty_payload () =
  match Frame.decode (Frame.encode Bytes.empty) with
  | Ok p -> Alcotest.(check int) "empty payload" 0 (Bytes.length p)
  | Error e -> Alcotest.failf "empty payload rejected: %s" (Frame.error_to_string e)

(* ---------- Channel ---------- *)

let noisy_config cseed =
  Channel.config_with ~drop:0.2 ~corrupt:0.3 ~truncate:0.1 ~duplicate:0.15 ~seed:cseed ()

let drive channel =
  (* A fixed message sequence pushed through a channel; returns deliveries. *)
  let rng = Prng.create ~seed in
  List.init 40 (fun i ->
      let n = 1 + Prng.int_below rng 64 in
      let payload = Bytes.init n (fun _ -> Char.chr (Prng.int_below rng 256)) in
      let dir = if i mod 2 = 0 then Comm.A_to_b else Comm.B_to_a in
      Channel.transmit channel dir ~label:(string_of_int i) payload)

let test_channel_replay_determinism () =
  let c1 = Channel.create (noisy_config 0xFA117L) in
  let c2 = Channel.create (noisy_config 0xFA117L) in
  let d1 = drive c1 and d2 = drive c2 in
  Alcotest.(check int) "same number of faults" (List.length (Channel.events c1))
    (List.length (Channel.events c2));
  List.iter2
    (fun (e1 : Channel.event) (e2 : Channel.event) ->
      Alcotest.(check int) "fault index" e1.Channel.index e2.Channel.index;
      Alcotest.(check string) "fault label" e1.Channel.label e2.Channel.label;
      Alcotest.(check bool) "fault kind" true (e1.Channel.fault = e2.Channel.fault))
    (Channel.events c1) (Channel.events c2);
  List.iter2
    (fun ds1 ds2 ->
      Alcotest.(check int) "delivery count" (List.length ds1) (List.length ds2);
      List.iter2 (fun b1 b2 -> Alcotest.(check bytes) "delivery bytes" b1 b2) ds1 ds2)
    d1 d2;
  (* A different seed produces a different fault sequence (overwhelmingly). *)
  let c3 = Channel.create (noisy_config 0xFA118L) in
  let d3 = drive c3 in
  Alcotest.(check bool) "different seed differs" true (d1 <> d3 || Channel.events c1 <> Channel.events c3)

let test_channel_perfect () =
  let ch = Channel.create Channel.perfect in
  let payload = Bytes.of_string "intact" in
  (match Channel.transmit ch Comm.A_to_b ~label:"m" payload with
  | [ delivered ] -> Alcotest.(check bytes) "verbatim" payload delivered
  | _ -> Alcotest.fail "perfect channel must deliver exactly once");
  Alcotest.(check int) "no faults" 0 (List.length (Channel.events ch))

let test_channel_fault_recording () =
  let ch = Channel.create (Channel.config_with ~drop:1.0 ~seed:1L ()) in
  (match Channel.transmit ch Comm.A_to_b ~label:"gone" (Bytes.make 8 'x') with
  | [] -> ()
  | _ -> Alcotest.fail "drop-rate 1.0 must drop");
  match Channel.events ch with
  | [ { Channel.fault = Channel.Dropped; label = "gone"; index = 0; _ } ] -> ()
  | _ -> Alcotest.fail "dropped fault must be recorded"

let test_channel_transport_rejects_damage () =
  (* Framed transport: anything the channel damaged is filtered out by the
     CRC, so the protocol sees intact bytes or nothing. *)
  let ch = Channel.create (Channel.config_with ~corrupt:0.9 ~seed:33L ()) in
  let tr = Channel.transport ch in
  let payload = Bytes.of_string "some protocol message body" in
  let intact = ref 0 and lost = ref 0 in
  for _ = 1 to 100 do
    match tr.Comm.transmit Comm.A_to_b ~label:"m" payload with
    | Some delivered ->
      incr intact;
      Alcotest.(check bytes) "framed transport never delivers damage" payload delivered
    | None -> incr lost
  done;
  Alcotest.(check bool) "some messages damaged" true (!lost > 0);
  Alcotest.(check bool) "some messages intact" true (!intact > 0)

(* ---------- Comm.xfer and merge_stats ---------- *)

let test_xfer_accounting () =
  (* Without a transport, xfer accounts payload bits and delivers verbatim;
     with one attached, the framing overhead is charged per message. *)
  let c = Comm.create () in
  let payload = Bytes.make 10 'p' in
  (match Comm.xfer c Comm.A_to_b ~label:"m" payload with
  | Ok p -> Alcotest.(check bytes) "identity without transport" payload p
  | Error `Lost -> Alcotest.fail "no transport, nothing to lose");
  Alcotest.(check int) "bits = 8 * bytes" 80 (Comm.stats c).Comm.bits_total;
  let c2 = Comm.create () in
  Comm.set_transport c2 (Channel.transport (Channel.create Channel.perfect));
  (match Comm.xfer c2 Comm.B_to_a ~label:"m" payload with
  | Ok p -> Alcotest.(check bytes) "perfect transport delivers" payload p
  | Error `Lost -> Alcotest.fail "perfect transport lost a message");
  Alcotest.(check int) "bits include framing overhead"
    (80 + (8 * Frame.overhead_bytes))
    (Comm.stats c2).Comm.bits_total

let test_merge_stats_interleaving () =
  let c1 = Comm.create () and c2 = Comm.create () in
  Comm.send c1 Comm.A_to_b ~label:"a1" ~bits:1;
  Comm.send c1 Comm.B_to_a ~label:"a2" ~bits:2;
  Comm.send c2 Comm.A_to_b ~label:"b1" ~bits:4;
  Comm.send c2 Comm.A_to_b ~label:"b2" ~bits:8;
  Comm.send c2 Comm.B_to_a ~label:"b3" ~bits:16;
  let m = Comm.merge_stats (Comm.stats c1) (Comm.stats c2) in
  Alcotest.(check int) "bits add" 31 m.Comm.bits_total;
  Alcotest.(check int) "rounds max" 2 m.Comm.rounds;
  Alcotest.(check (list string)) "transmission-order interleaving, ties first"
    [ "a1"; "b1"; "b2"; "a2"; "b3" ]
    (List.map (fun (msg : Comm.message) -> msg.Comm.label) m.Comm.messages);
  (* The nondecreasing-round invariant survives merging. *)
  let rounds = List.map (fun (msg : Comm.message) -> msg.Comm.round) m.Comm.messages in
  Alcotest.(check (list int)) "rounds nondecreasing" (List.sort compare rounds) rounds

(* ---------- Non-raising byte decoders ---------- *)

let test_iblt_of_body_bytes_opt () =
  let prm : Iblt.params = { cells = 16; k = 4; key_len = 8; seed = 9L } in
  let t = Iblt.create prm in
  Iblt.insert_int t 12345;
  let body = Iblt.body_bytes t in
  (match Iblt.of_body_bytes_opt prm body with
  | Some t' -> Alcotest.(check bytes) "roundtrip body" body (Iblt.body_bytes t')
  | None -> Alcotest.fail "own body rejected");
  Alcotest.(check bool) "short body rejected" true
    (Iblt.of_body_bytes_opt prm (Bytes.sub body 0 (Bytes.length body - 1)) = None);
  Alcotest.(check bool) "long body rejected" true
    (Iblt.of_body_bytes_opt prm (Bytes.cat body (Bytes.make 1 'x')) = None);
  (* Corrupted content is accepted structurally (the damage surfaces later
     as a detected decode failure), and never raises. *)
  for bit = 0 to (8 * Bytes.length body) - 1 do
    ignore (Iblt.of_body_bytes_opt prm (flip_bit body bit))
  done

let test_l0_of_bytes_opt () =
  let e = L0.create ~seed () in
  L0.update e L0.S1 42;
  let b = L0.to_bytes e in
  Alcotest.(check bool) "roundtrip" true (L0.of_bytes_opt ~seed b <> None);
  Alcotest.(check bool) "short rejected" true
    (L0.of_bytes_opt ~seed (Bytes.sub b 0 (Bytes.length b - 1)) = None);
  (* Any content parses without raising (counters are masked back into
     range); a skewed estimate is acceptable, an exception is not. *)
  for bit = 0 to min 511 ((8 * Bytes.length b) - 1) do
    ignore (L0.of_bytes_opt ~seed (flip_bit b bit))
  done

let test_encoding_decode_opt () =
  let cfg : Encoding.config = { child_cells = 12; child_k = 3; hash_bits = 30; seed = 5L } in
  let child = Iset.of_list [ 3; 17; 99 ] in
  let key = Encoding.encode cfg child in
  Alcotest.(check bool) "own encoding decodes" true (Encoding.decode_opt cfg key <> None);
  Alcotest.(check bool) "short key rejected" true
    (Encoding.decode_opt cfg (Bytes.sub key 0 (Bytes.length key - 1)) = None);
  for bit = 0 to (8 * Bytes.length key) - 1 do
    ignore (Encoding.decode_opt cfg (flip_bit key bit))
  done

let test_codec_int62 () =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 0x4000_0000_0000_0000L;
  Alcotest.(check bool) "bit 62 rejected" true (Codec.int62 (Codec.reader b) = None);
  Bytes.set_int64_le b 0 (-1L);
  Alcotest.(check bool) "negative rejected" true (Codec.int62 (Codec.reader b) = None);
  Bytes.set_int64_le b 0 0x3FFF_FFFF_FFFF_FFFFL;
  Alcotest.(check bool) "max 62-bit accepted" true
    (Codec.int62 (Codec.reader b) = Some 0x3FFF_FFFF_FFFF_FFFF)

(* ---------- Corruption never goes silent (protocol layer) ---------- *)

(* A transport that flips exactly one chosen bit of one chosen message and
   delivers everything else verbatim: the deterministic worst case, as
   opposed to the channel's random faults. *)
let surgical_transport ~message ~bit =
  let count = ref 0 in
  {
    Comm.overhead_bits = 0;
    transmit =
      (fun _dir ~label:_ payload ->
        let i = !count in
        incr count;
        if i = message && bit < 8 * Bytes.length payload then Some (flip_bit payload bit)
        else Some (Bytes.copy payload));
  }

let small_sets rng =
  let universe = 1 lsl 20 in
  let bob = Iset.random_subset rng ~universe ~size:60 in
  let arr = Iset.to_array bob in
  let del = Iset.of_list [ arr.(0); arr.(7) ] in
  let alice = Iset.apply_diff bob ~add:(Iset.random_subset rng ~universe ~size:2) ~del in
  (alice, bob)

let test_set_recon_single_bit_never_silent () =
  (* Exhaustive: every single-bit flip of the one message of the known-d set
     protocol either leaves the result correct (flip landed in slack bits)
     or yields a detected failure. *)
  let rng = Prng.create ~seed in
  let alice, bob = small_sets rng in
  let probe = Comm.create () in
  let msg_bits =
    match Set_recon.run_known_d ~comm:probe ~seed ~d:8 ~k:4 ~alice ~bob with
    | Ok _ -> (Comm.stats probe).Comm.bits_total
    | Error `Decode_failure -> Alcotest.fail "fault-free run must succeed"
  in
  let silent = ref 0 and detected = ref 0 and survived = ref 0 in
  for bit = 0 to msg_bits - 1 do
    let comm = Comm.create () in
    Comm.set_transport comm (surgical_transport ~message:0 ~bit);
    match Set_recon.run_known_d ~comm ~seed ~d:8 ~k:4 ~alice ~bob with
    | Ok o ->
      if Iset.equal o.Set_recon.recovered alice then incr survived
      else begin
        incr silent;
        Printf.printf "silent corruption at bit %d\n" bit
      end
    | Error `Decode_failure -> incr detected
  done;
  Alcotest.(check int) "no silent corruptions" 0 !silent;
  Alcotest.(check bool) "flips were detected" true (!detected > 0);
  ignore !survived

let small_parents rng =
  let universe = 1 lsl 18 in
  let bob = Parent.random rng ~universe ~children:8 ~child_size:6 in
  let alice, _ = Parent.perturb rng ~universe ~edits:3 bob in
  (alice, bob)

let sos_args rng alice bob =
  let d = max 4 (Parent.relaxed_matching_cost alice bob) in
  let h = Parent.max_child_size alice + 3 in
  ignore rng;
  (d, h)

let test_sos_corruption_never_silent () =
  (* Random single-bit flips and random bursts, across all four protocols
     and every message of each: correct or detected, never silently wrong. *)
  let rng = Prng.create ~seed in
  List.iter
    (fun kind ->
      let alice, bob = small_parents rng in
      let d, h = sos_args rng alice bob in
      let u = 1 lsl 18 in
      let probe = Comm.create () in
      (match Protocol.run_known kind ~comm:probe ~seed ~enc_seed:None ~d ~u ~h ~alice ~bob with
      | Ok _ -> ()
      | Error `Decode_failure ->
        Alcotest.failf "fault-free %s run must succeed" (Protocol.name kind));
      let n_messages = List.length (Comm.stats probe).Comm.messages in
      let silent = ref 0 and detected = ref 0 in
      for trial = 1 to 120 do
        let message = Prng.int_below rng (max 1 n_messages) in
        let bit = Prng.int_below rng 200_000 in
        let comm = Comm.create () in
        Comm.set_transport comm (surgical_transport ~message ~bit);
        (match Protocol.run_known kind ~comm ~seed ~enc_seed:None ~d ~u ~h ~alice ~bob with
        | Ok o -> if not (Parent.equal o.Protocol.recovered alice) then incr silent
        | Error `Decode_failure -> incr detected);
        ignore trial
      done;
      Alcotest.(check int)
        (Printf.sprintf "%s: no silent corruptions" (Protocol.name kind))
        0 !silent;
      ignore !detected)
    Protocol.all

let burst_transport ~message ~start ~len rng_seed =
  let count = ref 0 in
  {
    Comm.overhead_bits = 0;
    transmit =
      (fun _dir ~label:_ payload ->
        let i = !count in
        incr count;
        if i <> message then Some (Bytes.copy payload)
        else begin
          let rng = Prng.create ~seed:rng_seed in
          let out = Bytes.copy payload in
          let total = 8 * Bytes.length out in
          if total = 0 then Some out
          else begin
            for j = 0 to len - 1 do
              let bit = (start + j) mod total in
              let byte = bit / 8 and mask = 1 lsl (bit mod 8) in
              if Prng.bool rng then
                Bytes.set out byte (Char.chr (Char.code (Bytes.get out byte) lxor mask))
            done;
            Some out
          end
        end);
  }

let test_burst_corruption_never_silent () =
  let rng = Prng.create ~seed in
  List.iter
    (fun kind ->
      let alice, bob = small_parents rng in
      let d, h = sos_args rng alice bob in
      let u = 1 lsl 18 in
      let silent = ref 0 in
      for trial = 1 to 40 do
        let comm = Comm.create () in
        Comm.set_transport comm
          (burst_transport ~message:(Prng.int_below rng 4) ~start:(Prng.int_below rng 100_000)
             ~len:(1 + Prng.int_below rng 256)
             (Int64.of_int (trial * 7919)));
        match Protocol.run_known kind ~comm ~seed ~enc_seed:None ~d ~u ~h ~alice ~bob with
        | Ok o -> if not (Parent.equal o.Protocol.recovered alice) then incr silent
        | Error `Decode_failure -> ()
      done;
      Alcotest.(check int)
        (Printf.sprintf "%s: no silent burst corruptions" (Protocol.name kind))
        0 !silent)
    Protocol.all

(* ---------- Resilient driver ---------- *)

let test_resilient_set_perfect () =
  let rng = Prng.create ~seed in
  let alice, bob = small_sets rng in
  let ch = Channel.create Channel.perfect in
  (* The first attempt runs at minimal recommended cells, where decode fails
     for ~1% of fixed seeds; the derived protocol seed is picked to peel
     fully under the current hash schedule so "one attempt" is meaningful. *)
  match
    Resilient.reconcile_set ~link:(Resilient.over_channel ch)
      ~seed:(Prng.derive ~seed ~tag:0x5EED) ~alice ~bob ()
  with
  | Ok (recovered, rep) ->
    Alcotest.(check bool) "recovered" true (Iset.equal recovered alice);
    Alcotest.(check bool) "not degraded" false rep.Resilient.degraded;
    Alcotest.(check int) "one attempt" 1 (List.length rep.Resilient.attempts);
    Alcotest.(check int) "no faults" 0 (List.length rep.Resilient.faults);
    Alcotest.(check bool) "no timing on a channel link" true (rep.Resilient.timing = None)
  | Error (`Transport_failure _ | `Deadline_exceeded _) ->
    Alcotest.fail "perfect channel must succeed"

let test_resilient_retries_then_succeeds () =
  (* A small initial d on a large difference forces doubling retries. *)
  let rng = Prng.create ~seed in
  let universe = 1 lsl 20 in
  let bob = Iset.random_subset rng ~universe ~size:100 in
  let alice = Iset.union bob (Iset.random_subset rng ~universe ~size:40) in
  let ch = Channel.create Channel.perfect in
  match
    Resilient.reconcile_set ~link:(Resilient.over_channel ch) ~seed ~initial_d:1 ~max_attempts:8
      ~alice ~bob ()
  with
  | Ok (recovered, rep) ->
    Alcotest.(check bool) "recovered" true (Iset.equal recovered alice);
    Alcotest.(check bool) "took retries" true (List.length rep.Resilient.attempts > 1);
    (* Bounds double monotonically across reconciliation attempts (salvage
       attempts shrink theirs with progress, so they are excluded). *)
    let ds =
      List.filter_map
        (fun (a : Resilient.attempt) ->
          if a.Resilient.direct || a.Resilient.salvage then None else Some a.Resilient.d)
        rep.Resilient.attempts
    in
    Alcotest.(check (list int)) "exponential doubling" (List.sort compare ds) ds
  | Error (`Transport_failure _ | `Deadline_exceeded _) ->
    Alcotest.fail "must eventually succeed"

let test_resilient_degrades_to_direct () =
  (* Attempt budget of 1 with a hopeless bound: the driver must fall back to
     the verified direct transfer and still return the right answer. *)
  let rng = Prng.create ~seed in
  let universe = 1 lsl 20 in
  let bob = Iset.random_subset rng ~universe ~size:80 in
  let alice = Iset.union bob (Iset.random_subset rng ~universe ~size:50) in
  let ch = Channel.create Channel.perfect in
  match
    Resilient.reconcile_set ~link:(Resilient.over_channel ch) ~seed ~initial_d:1 ~max_attempts:1
      ~alice ~bob ()
  with
  | Ok (recovered, rep) ->
    Alcotest.(check bool) "recovered via direct" true (Iset.equal recovered alice);
    Alcotest.(check bool) "degraded" true rep.Resilient.degraded
  | Error (`Transport_failure _ | `Deadline_exceeded _) ->
    Alcotest.fail "direct transfer over a perfect channel must work"

let test_resilient_total_loss_is_typed () =
  let rng = Prng.create ~seed in
  let alice, bob = small_sets rng in
  let ch = Channel.create (Channel.config_with ~drop:1.0 ~seed:3L ()) in
  match
    Resilient.reconcile_set ~link:(Resilient.over_channel ch) ~seed ~max_attempts:3 ~alice ~bob ()
  with
  | Ok _ -> Alcotest.fail "nothing can get through a fully lossy channel"
  | Error (`Deadline_exceeded _) -> Alcotest.fail "no deadline on a channel link"
  | Error (`Transport_failure rep) ->
    Alcotest.(check bool) "degraded on the way down" true rep.Resilient.degraded;
    (* The whole ladder is climbed and recorded: 3 reconciliation attempts,
       2 salted-rehash salvage attempts (the default budget), 3 direct. *)
    Alcotest.(check bool) "attempts recorded" true (List.length rep.Resilient.attempts = 8);
    Alcotest.(check int) "salvage rung climbed" 2
      (List.length (List.filter (fun (a : Resilient.attempt) -> a.Resilient.salvage) rep.Resilient.attempts));
    Alcotest.(check bool) "faults recorded" true (List.length rep.Resilient.faults > 0)

let test_resilient_sos_sweep () =
  (* All four protocols, a few seeds, moderate fault rates, framed and raw:
     every outcome is correct or a typed failure. *)
  let rng = Prng.create ~seed in
  List.iter
    (fun kind ->
      List.iter
        (fun framed ->
          for trial = 1 to 6 do
            let wseed = Prng.derive ~seed ~tag:(trial * 131) in
            let alice, bob = small_parents rng in
            let d, h = sos_args rng alice bob in
            let ch =
              Channel.create
                (Channel.config_with ~drop:0.1 ~corrupt:0.1 ~truncate:0.05
                   ~seed:(Prng.derive ~seed:wseed ~tag:1) ())
            in
            match
              Resilient.reconcile_sos ~link:(Resilient.over_channel ~framed ch) ~kind ~seed:wseed
                ~u:(1 lsl 18) ~h ~initial_d:d ~alice ~bob ()
            with
            | Ok (recovered, _) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s framed=%b correct" (Protocol.name kind) framed)
                true (Parent.equal recovered alice)
            | Error (`Transport_failure rep | `Deadline_exceeded rep) ->
              Alcotest.(check bool) "typed failure carries attempts" true
                (List.length rep.Resilient.attempts > 0)
          done)
        [ true; false ])
    Protocol.all

let test_resilient_replay_by_seed () =
  (* Re-running a faulty reconciliation with the same channel seed replays
     the identical fault sequence — the debugging contract of the CLI's
     --fault-seed flag. *)
  let run () =
    let rng = Prng.create ~seed in
    let alice, bob = small_sets rng in
    let ch = Channel.create (Channel.config_with ~drop:0.4 ~corrupt:0.7 ~seed:0xD15EA5EL ()) in
    let result = Resilient.reconcile_set ~link:(Resilient.over_channel ch) ~seed ~alice ~bob () in
    let faults =
      match result with
      | Ok (_, rep) -> rep.Resilient.faults
      | Error (`Transport_failure rep | `Deadline_exceeded rep) -> rep.Resilient.faults
    in
    List.map
      (fun (e : Channel.event) -> (e.Channel.index, e.Channel.label, e.Channel.fault))
      faults
  in
  let f1 = run () and f2 = run () in
  Alcotest.(check bool) "same faults on replay" true (f1 = f2);
  Alcotest.(check bool) "faults actually injected" true (f1 <> [])

(* ---------- Clock ---------- *)

let test_clock_ordering () =
  let clock = Clock.create () in
  let fired = ref [] in
  let note tag () = fired := (tag, Clock.now_us clock) :: !fired in
  (* Scheduled out of time order; ties broken by scheduling order. *)
  ignore (Clock.schedule clock ~at_us:30 (note "c"));
  ignore (Clock.schedule clock ~at_us:10 (note "a"));
  ignore (Clock.schedule clock ~at_us:30 (note "d"));
  ignore (Clock.schedule clock ~at_us:20 (note "b"));
  Alcotest.(check int) "pending" 4 (Clock.pending clock);
  Clock.run_until clock ~deadline_us:100 ~stop:(fun () -> false);
  Alcotest.(check (list (pair string int)))
    "time order, ties by scheduling order"
    [ ("a", 10); ("b", 20); ("c", 30); ("d", 30) ]
    (List.rev !fired);
  Alcotest.(check int) "idle time passes to the deadline" 100 (Clock.now_us clock);
  Alcotest.(check int) "nothing pending" 0 (Clock.pending clock)

let test_clock_cancel_and_clamp () =
  let clock = Clock.create () in
  let fired = ref 0 in
  let id = Clock.schedule clock ~at_us:10 (fun () -> incr fired) in
  ignore (Clock.schedule clock ~at_us:20 (fun () -> incr fired));
  Clock.cancel clock id;
  Clock.cancel clock id;
  Clock.advance clock ~by_us:50;
  Alcotest.(check int) "cancelled event never fires" 1 !fired;
  (* Scheduling in the past clamps to now: it fires, it does not rewind. *)
  let t = Clock.now_us clock in
  ignore (Clock.schedule clock ~at_us:(t - 40) (fun () -> incr fired));
  Clock.advance clock ~by_us:0;
  Alcotest.(check int) "past event clamped to now" 2 !fired;
  Alcotest.(check bool) "time is monotonic" true (Clock.now_us clock >= t)

let test_clock_stop_condition () =
  let clock = Clock.create () in
  let fired = ref 0 in
  for i = 1 to 5 do
    ignore (Clock.schedule clock ~at_us:(i * 10) (fun () -> incr fired))
  done;
  Clock.run_until clock ~deadline_us:1_000 ~stop:(fun () -> !fired >= 2);
  Alcotest.(check int) "stop halts the loop" 2 !fired;
  Alcotest.(check int) "stop leaves now at the last event" 20 (Clock.now_us clock);
  Clock.run_until clock ~deadline_us:1_000 ~stop:(fun () -> true);
  Alcotest.(check int) "stop checked before the first event" 2 !fired

(* ---------- Channel duplication ---------- *)

let test_channel_duplicate_copies () =
  let payload = Bytes.of_string "twice? thrice!" in
  let ch =
    Channel.create (Channel.config_with ~duplicate:1.0 ~duplicate_copies:3 ~seed:7L ())
  in
  (match Channel.transmit ch Comm.A_to_b ~label:"dup" payload with
  | [ a; b; c ] ->
    List.iter (fun d -> Alcotest.(check bytes) "copies verbatim" payload d) [ a; b; c ]
  | ds -> Alcotest.failf "expected 3 copies, got %d" (List.length ds));
  (match Channel.events ch with
  | [ { Channel.fault = Channel.Duplicated { copies = 3 }; _ } ] -> ()
  | _ -> Alcotest.fail "duplication event must record the copy count");
  match Channel.config_with ~duplicate_copies:1 ~seed:7L () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate_copies < 2 must be rejected"

let test_channel_copy_tagged_damage () =
  (* With duplication and corruption both certain, each corruption event
     must say which delivery it applied to, and the tag must be in range. *)
  let ch =
    Channel.create
      (Channel.config_with ~duplicate:1.0 ~duplicate_copies:4 ~corrupt:1.0 ~seed:11L ())
  in
  let deliveries = Channel.transmit ch Comm.B_to_a ~label:"d" (Bytes.make 32 'z') in
  Alcotest.(check int) "all copies delivered" 4 (List.length deliveries);
  let copies =
    List.filter_map
      (fun (e : Channel.event) ->
        match e.Channel.fault with Channel.Corrupted { copy; _ } -> Some copy | _ -> None)
      (Channel.events ch)
  in
  Alcotest.(check int) "each copy damaged independently" 4 (List.length copies);
  Alcotest.(check (list int)) "copy tags cover the fan-out" [ 0; 1; 2; 3 ]
    (List.sort compare copies)

(* ---------- Network ---------- *)

let net_stack ?(config = fun seed -> Network.config_with ~seed ()) nseed =
  let clock = Clock.create () in
  let network = Network.create ~clock (config nseed) in
  (clock, network)

let test_network_latency () =
  let clock, net =
    net_stack ~config:(fun seed -> Network.config_with ~latency_us:500 ~seed ()) 3L
  in
  let got = ref [] in
  Network.on_deliver net (fun dir b -> got := (dir, Bytes.to_string b) :: !got);
  Network.send net Comm.A_to_b ~label:"m" (Bytes.of_string "hello");
  Alcotest.(check (list (pair bool string))) "nothing before the latency elapses" []
    (List.map (fun (d, s) -> (d = Comm.A_to_b, s)) !got);
  Clock.advance clock ~by_us:499;
  Alcotest.(check int) "still in flight" 0 (List.length !got);
  Clock.advance clock ~by_us:1;
  (match !got with
  | [ (Comm.A_to_b, "hello") ] -> ()
  | _ -> Alcotest.fail "exactly one delivery at sent + latency");
  match Network.transcript net with
  | [ d ] ->
    Alcotest.(check int) "transcript sent time" 0 d.Network.sent_us;
    Alcotest.(check int) "transcript delivery time" 500 d.Network.delivered_us
  | _ -> Alcotest.fail "one transcript entry"

let test_network_replay_determinism () =
  let noisy seed =
    Network.config_with ~drop:0.2 ~corrupt:0.3 ~duplicate:0.2 ~latency_us:300 ~jitter_us:200
      ~reorder:0.4 ~seed ()
  in
  let drive nseed =
    let clock, net = net_stack ~config:noisy nseed in
    Network.on_deliver net (fun _ _ -> ());
    let rng = Prng.create ~seed in
    for i = 0 to 39 do
      let n = 1 + Prng.int_below rng 48 in
      let payload = Bytes.init n (fun _ -> Char.chr (Prng.int_below rng 256)) in
      let dir = if i mod 2 = 0 then Comm.A_to_b else Comm.B_to_a in
      Network.send net dir ~label:(string_of_int i) payload;
      Clock.advance clock ~by_us:100
    done;
    Clock.advance clock ~by_us:10_000;
    Network.transcript net
  in
  let t1 = drive 0x2E7L and t2 = drive 0x2E7L in
  Alcotest.(check bool) "byte-identical transcript from one seed" true (t1 = t2);
  Alcotest.(check bool) "transcript non-trivial" true (List.length t1 > 40);
  let t3 = drive 0x2E8L in
  Alcotest.(check bool) "different seed, different schedule" true (t1 <> t3)

let test_network_partition_window () =
  let clock, net =
    net_stack
      ~config:(fun seed ->
        Network.config_with ~latency_us:10
          ~partitions:[ { Network.from_us = 100; until_us = 200; blocks = `A_to_b } ]
          ~seed ())
      5L
  in
  let got = ref 0 in
  Network.on_deliver net (fun _ _ -> incr got);
  Alcotest.(check bool) "window not yet open" false (Network.in_partition net Comm.A_to_b ~at_us:0);
  Alcotest.(check bool) "window open at 150" true (Network.in_partition net Comm.A_to_b ~at_us:150);
  Alcotest.(check bool) "window is directional" false
    (Network.in_partition net Comm.B_to_a ~at_us:150);
  Alcotest.(check bool) "window closed at 200" false
    (Network.in_partition net Comm.A_to_b ~at_us:200);
  Network.send net Comm.A_to_b ~label:"pre" (Bytes.of_string "pre");
  Clock.advance clock ~by_us:150;
  Network.send net Comm.A_to_b ~label:"blocked" (Bytes.of_string "blocked");
  Network.send net Comm.B_to_a ~label:"reverse" (Bytes.of_string "reverse");
  Clock.advance clock ~by_us:100;
  Network.send net Comm.A_to_b ~label:"post" (Bytes.of_string "post");
  Clock.advance clock ~by_us:100;
  Alcotest.(check int) "blocked copy swallowed, rest delivered" 3 !got;
  Alcotest.(check int) "partition exposure counted" 1 (Network.partition_drops net);
  let blocked =
    List.filter (fun (d : Network.delivery) -> d.Network.partitioned) (Network.transcript net)
  in
  match blocked with
  | [ d ] ->
    Alcotest.(check bool) "swallowed copy never delivered" true (d.Network.delivered_us = -1)
  | _ -> Alcotest.fail "exactly one partitioned transcript entry"

(* ---------- ARQ ---------- *)

let arq_stack ?config ~net_config nseed =
  let clock = Clock.create () in
  let network = Network.create ~clock (net_config nseed) in
  let arq = Arq.create ?config ~clock ~network ~seed:nseed () in
  (clock, network, arq)

let test_arq_perfect_network () =
  let _, _, arq = arq_stack ~net_config:(fun seed -> Network.config_with ~seed ()) 1L in
  let tr = Arq.transport arq in
  let p = Bytes.of_string "payload" in
  (match tr.Comm.transmit Comm.A_to_b ~label:"m" p with
  | Some d -> Alcotest.(check bytes) "delivered verbatim" p d
  | None -> Alcotest.fail "ideal network must deliver");
  Alcotest.(check int) "no retransmissions" 0 (Arq.stats arq).Arq.retransmissions

let test_arq_exactly_once_in_order () =
  (* The exhaustive small case of the ARQ contract: under forced drops,
     duplication, corruption and reordering, every payload is app-delivered
     exactly once, in order, across a spread of seeds. [delivered_log] is
     ground truth, independent of what transmit returns. *)
  let hostile seed =
    Network.config_with ~drop:0.25 ~corrupt:0.1 ~duplicate:0.3 ~latency_us:400 ~jitter_us:300
      ~reorder:0.5 ~seed ()
  in
  let config =
    { Arq.rto_us = 5_000; rto_cap_us = 40_000; rto_jitter_us = 1_000; msg_deadline_us = 10_000_000 }
  in
  for trial = 0 to 19 do
    let nseed = Prng.derive ~seed ~tag:(0xA5 + trial) in
    let _, _, arq = arq_stack ~config ~net_config:hostile nseed in
    let tr = Arq.transport arq in
    let payload dir i = Bytes.of_string (Printf.sprintf "%s-%d" dir i) in
    for i = 0 to 11 do
      (* Ping-pong like a real protocol round. *)
      (match tr.Comm.transmit Comm.A_to_b ~label:"req" (payload "ab" i) with
      | Some d -> Alcotest.(check bytes) "transmit returns its own payload" (payload "ab" i) d
      | None -> Alcotest.failf "trial %d: request %d timed out" trial i);
      match tr.Comm.transmit Comm.B_to_a ~label:"rsp" (payload "ba" i) with
      | Some d -> Alcotest.(check bytes) "reply returns its own payload" (payload "ba" i) d
      | None -> Alcotest.failf "trial %d: reply %d timed out" trial i
    done;
    let log dir =
      List.filter_map
        (fun (d, sq, b) -> if d = dir then Some (sq, Bytes.to_string b) else None)
        (Arq.delivered_log arq)
    in
    let expect tag = List.init 12 (fun i -> (i, Printf.sprintf "%s-%d" tag i)) in
    Alcotest.(check (list (pair int string)))
      "a->b delivered exactly once, in order" (expect "ab") (log Comm.A_to_b);
    Alcotest.(check (list (pair int string)))
      "b->a delivered exactly once, in order" (expect "ba") (log Comm.B_to_a)
  done

let test_arq_duplicate_suppression () =
  let _, _, arq =
    arq_stack
      ~net_config:(fun seed ->
        Network.config_with ~duplicate:1.0 ~duplicate_copies:3 ~latency_us:100 ~seed ())
      9L
  in
  let tr = Arq.transport arq in
  for i = 0 to 7 do
    match tr.Comm.transmit Comm.A_to_b ~label:"m" (Bytes.make 8 (Char.chr (65 + i))) with
    | Some _ -> ()
    | None -> Alcotest.fail "duplication alone must not lose messages"
  done;
  let st = Arq.stats arq in
  Alcotest.(check bool) "extra copies suppressed" true (st.Arq.duplicates_suppressed > 0);
  Alcotest.(check int) "app deliveries unaffected" 8 (List.length (Arq.delivered_log arq))

let test_arq_full_partition_times_out () =
  (* A network that never delivers: transmit must return None after its
     virtual deadline — head-of-line timeout, not a hang. *)
  let clock, _, arq =
    arq_stack
      ~net_config:(fun seed ->
        Network.config_with
          ~partitions:[ { Network.from_us = 0; until_us = max_int; blocks = `Both } ]
          ~seed ())
      13L
  in
  let tr = Arq.transport arq in
  (match tr.Comm.transmit Comm.A_to_b ~label:"void" (Bytes.of_string "into the void") with
  | None -> ()
  | Some _ -> Alcotest.fail "nothing can cross a full partition");
  let st = Arq.stats arq in
  Alcotest.(check int) "timeout counted" 1 st.Arq.timeouts;
  Alcotest.(check bool) "retransmissions were attempted" true (st.Arq.retransmissions > 0);
  Alcotest.(check int) "virtual clock ran to the per-message deadline"
    Arq.default_config.Arq.msg_deadline_us (Clock.now_us clock)

(* ---------- Resilient driver over the simulated network ---------- *)

let resilient_net_link ?(partitions = []) ?(drop = 0.05) ?(reorder = 0.10) nseed =
  let clock = Clock.create () in
  let network =
    Network.create ~clock
      (Network.config_with ~drop ~corrupt:0.02 ~duplicate:0.05 ~latency_us:2_000 ~jitter_us:1_000
         ~reorder ~partitions ~seed:nseed ())
  in
  Resilient.over_network (Arq.create ~clock ~network ~seed:nseed ())

let test_resilient_network_all_stacks () =
  (* The acceptance stack: all five protocols over drop + reorder + latency
     jitter + one partition window, several seeds each. Every run ends
     verified-correct or as a typed failure. *)
  let rng = Prng.create ~seed in
  let partitions = [ { Network.from_us = 20_000; until_us = 60_000; blocks = `Both } ] in
  let check_set wseed =
    let alice, bob = small_sets rng in
    let link = resilient_net_link ~partitions (Prng.derive ~seed:wseed ~tag:1) in
    match
      Resilient.reconcile_set ~link ~seed:wseed ~run_deadline_us:30_000_000 ~alice ~bob ()
    with
    | Ok (recovered, rep) ->
      Alcotest.(check bool) "set recovered" true (Iset.equal recovered alice);
      (match rep.Resilient.timing with
      | Some t -> Alcotest.(check bool) "virtual time elapsed" true (t.Resilient.elapsed_us > 0)
      | None -> Alcotest.fail "network link must report timing")
    | Error (`Transport_failure _ | `Deadline_exceeded _) -> ()
  in
  let check_sos kind wseed =
    let alice, bob = small_parents rng in
    let d, h = sos_args rng alice bob in
    let link = resilient_net_link ~partitions (Prng.derive ~seed:wseed ~tag:2) in
    match
      Resilient.reconcile_sos ~link ~kind ~seed:wseed ~u:(1 lsl 18) ~h ~initial_d:d
        ~run_deadline_us:30_000_000 ~alice ~bob ()
    with
    | Ok (recovered, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s recovered over network" (Protocol.name kind))
        true (Parent.equal recovered alice)
    | Error (`Transport_failure _ | `Deadline_exceeded _) -> ()
  in
  for trial = 1 to 4 do
    let wseed = Prng.derive ~seed ~tag:(0x5ACC + trial) in
    check_set wseed;
    List.iter (fun kind -> check_sos kind wseed) Protocol.all
  done

let test_resilient_network_deadline_exceeded () =
  (* A permanent partition with a whole-run deadline: the driver must come
     back with the typed deadline failure carrying a full report — and it
     must do so without consuming real time. *)
  let rng = Prng.create ~seed in
  let alice, bob = small_sets rng in
  let link =
    resilient_net_link
      ~partitions:[ { Network.from_us = 0; until_us = max_int; blocks = `Both } ]
      0x0DEADL
  in
  match
    Resilient.reconcile_set ~link ~seed ~max_attempts:4 ~attempt_deadline_us:200_000
      ~run_deadline_us:1_000_000 ~alice ~bob ()
  with
  | Ok _ -> Alcotest.fail "nothing can cross a permanent partition"
  | Error (`Transport_failure _) -> Alcotest.fail "run deadline must fire before the budget"
  | Error (`Deadline_exceeded rep) ->
    Alcotest.(check bool) "attempts recorded" true (List.length rep.Resilient.attempts > 0);
    (* The failure report prices the run: the bytes burned before the
       deadline are what makes a rateless failure comparable to a doubling
       one. The ARQ kept (re)transmitting into the partition, so they are
       nonzero. *)
    Alcotest.(check bool) "failure report carries wire bytes" true
      (rep.Resilient.wire_bytes > 0);
    (match rep.Resilient.timing with
    | Some t ->
      Alcotest.(check bool) "partition exposure recorded" true (t.Resilient.partition_drops > 0);
      Alcotest.(check bool) "deadline respected in virtual time" true
        (t.Resilient.elapsed_us <= 1_000_000 + 200_000)
    | None -> Alcotest.fail "network link must report timing")

let test_resilient_network_replay () =
  (* Whole-stack replay: same seeds, same report — attempts, timing and the
     network's delivery schedule all reproduce. *)
  let run () =
    let clock = Clock.create () in
    let network =
      Network.create ~clock
        (Network.config_with ~drop:0.3 ~corrupt:0.1 ~duplicate:0.2 ~latency_us:1_000
           ~jitter_us:700 ~reorder:0.3 ~seed:0x3E1A11L ())
    in
    let arq = Arq.create ~clock ~network ~seed:0x3E1A11L () in
    let rng = Prng.create ~seed in
    let alice, bob = small_sets rng in
    let result =
      Resilient.reconcile_set ~link:(Resilient.over_network arq) ~seed
        ~run_deadline_us:30_000_000 ~alice ~bob ()
    in
    let rep =
      match result with
      | Ok (_, rep) -> rep
      | Error (`Transport_failure rep | `Deadline_exceeded rep) -> rep
    in
    (rep.Resilient.attempts, rep.Resilient.timing, Network.transcript network)
  in
  let a1, t1, tr1 = run () in
  let a2, t2, tr2 = run () in
  Alcotest.(check bool) "attempts replay" true (a1 = a2);
  Alcotest.(check bool) "timing replays" true (t1 = t2);
  Alcotest.(check bool) "delivery schedule replays byte-identically" true (tr1 = tr2)

(* ---------- Rateless strategy ---------- *)

let test_rateless_strategy_channel () =
  (* The rateless rung over a lossy, corrupting channel: correct result,
     and the report carries bytes-on-wire even though a channel link
     reports no timing. *)
  let rng = Prng.create ~seed in
  let alice, bob = small_sets rng in
  let ch = Channel.create (Channel.config_with ~drop:0.15 ~corrupt:0.1 ~seed:0x2A7L ()) in
  match
    Resilient.reconcile_set ~link:(Resilient.over_channel ch) ~strategy:Resilient.Rateless
      ~seed ~alice ~bob ()
  with
  | Ok (recovered, rep) ->
    Alcotest.(check bool) "recovered" true (Iset.equal recovered alice);
    Alcotest.(check bool) "not degraded" false rep.Resilient.degraded;
    Alcotest.(check bool) "no timing on a channel link" true (rep.Resilient.timing = None);
    Alcotest.(check bool) "wire bytes reported on a channel link" true
      (rep.Resilient.wire_bytes > 0);
    Alcotest.(check int) "channel counter matches the report" (Channel.bytes_sent ch)
      rep.Resilient.wire_bytes
  | Error (`Transport_failure _ | `Deadline_exceeded _) ->
    Alcotest.fail "rateless over a lossy channel must converge"

let test_rateless_strategy_network () =
  (* Over the full simulated stack with drop + reorder + latency jitter:
     the stream converges without ever retransmitting a cell window, and
     the report's top-level wire bytes agree with the ARQ's accounting. *)
  let rng = Prng.create ~seed in
  let alice, bob = small_sets rng in
  let link = resilient_net_link ~drop:0.1 0x2A7E1E55L in
  match
    Resilient.reconcile_set ~link ~strategy:Resilient.Rateless ~seed
      ~run_deadline_us:60_000_000 ~alice ~bob ()
  with
  | Ok (recovered, rep) -> (
    Alcotest.(check bool) "recovered over network" true (Iset.equal recovered alice);
    match rep.Resilient.timing with
    | Some t ->
      Alcotest.(check bool) "virtual time elapsed" true (t.Resilient.elapsed_us > 0);
      Alcotest.(check int) "report wire bytes = timing wire bytes" t.Resilient.wire_bytes
        rep.Resilient.wire_bytes
    | None -> Alcotest.fail "network link must report timing")
  | Error (`Transport_failure _ | `Deadline_exceeded _) ->
    Alcotest.fail "rateless over the simulated network must converge"

let test_rateless_strategy_replay () =
  (* The rateless stream is as replay-deterministic as everything else:
     same seeds, same attempts, same delivery schedule. *)
  let run () =
    let clock = Clock.create () in
    let network =
      Network.create ~clock
        (Network.config_with ~drop:0.2 ~corrupt:0.05 ~duplicate:0.1 ~latency_us:1_500
           ~jitter_us:600 ~reorder:0.2 ~seed:0x7A7E11L ())
    in
    let arq = Arq.create ~clock ~network ~seed:0x7A7E11L () in
    let rng = Prng.create ~seed in
    let alice, bob = small_sets rng in
    let result =
      Resilient.reconcile_set ~link:(Resilient.over_network arq) ~strategy:Resilient.Rateless
        ~seed ~run_deadline_us:60_000_000 ~alice ~bob ()
    in
    let rep =
      match result with
      | Ok (_, rep) -> rep
      | Error (`Transport_failure rep | `Deadline_exceeded rep) -> rep
    in
    (rep.Resilient.attempts, rep.Resilient.wire_bytes, Network.transcript network)
  in
  let a1, w1, tr1 = run () in
  let a2, w2, tr2 = run () in
  Alcotest.(check bool) "attempts replay" true (a1 = a2);
  Alcotest.(check int) "wire bytes replay" w1 w2;
  Alcotest.(check bool) "delivery schedule replays byte-identically" true (tr1 = tr2)

(* ---------- Untrusted size fields (hardening regressions) ---------- *)

(* Feed parsers a tiny body whose length/count fields declare something
   enormous: the parse must return an error without allocating anything
   sized from the hostile field. The allocation bound is generous (64 KiB)
   against hostile fields declaring hundreds of MiB. [Gc.allocated_bytes]
   counts the minor heap only as of the last minor collection, so one that
   fell inside the window would charge it with everything allocated since
   the previous one: collecting first makes the reading this window's
   own. *)
let assert_bounded_alloc ~name f =
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let r = f () in
  let after = Gc.allocated_bytes () in
  Alcotest.(check bool) (name ^ ": rejected") true r;
  Alcotest.(check bool)
    (Printf.sprintf "%s: bounded allocation (%.0f bytes)" name (after -. before))
    true
    (after -. before < 65_536.)

let test_frame_huge_declared_length () =
  (* 16 real payload bytes, header declaring ~4 GiB. *)
  let tiny = Frame.encode (Bytes.make 16 'x') in
  Bytes.set_int32_le tiny 1 0xFFFF_FF0Fl;
  assert_bounded_alloc ~name:"frame" (fun () ->
      match Frame.decode tiny with Ok _ -> false | Error _ -> true)

let test_direct_set_hostile () =
  let rng = Prng.create ~seed in
  let s = Iset.random_subset rng ~universe:(1 lsl 20) ~size:8 in
  let good =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.of_int (Ssr_setrecon.Set_recon.set_hash ~seed s));
    Bytes.cat (Iset.canonical_bytes s) b
  in
  (match Resilient.For_tests.parse_direct_set ~seed good with
  | Some s' -> Alcotest.(check bool) "well-formed payload accepted" true (Iset.equal s s')
  | None -> Alcotest.fail "well-formed direct payload rejected");
  Alcotest.(check bool) "ragged length rejected" true
    (Resilient.For_tests.parse_direct_set ~seed (Bytes.sub good 0 (Bytes.length good - 3)) = None);
  Alcotest.(check bool) "hash mismatch rejected" true
    (Resilient.For_tests.parse_direct_set ~seed (flip_bit good 3) = None);
  Alcotest.(check bool) "empty rejected" true
    (Resilient.For_tests.parse_direct_set ~seed Bytes.empty = None)

let test_direct_sos_huge_count () =
  (* A 12-byte body declaring 2^31 - 1 children: the count must be rejected
     against the remaining bytes before the parse loop builds anything. *)
  let hostile = Bytes.make 12 '\x00' in
  Bytes.set_int32_le hostile 0 0x7FFF_FFFFl;
  assert_bounded_alloc ~name:"direct-sos count" (fun () ->
      Resilient.For_tests.parse_direct_sos ~seed hostile = None);
  (* Same attack one level down: a plausible child count whose first child
     declares a huge length. *)
  let nested = Bytes.make 16 '\x00' in
  Bytes.set_int32_le nested 0 1l;
  Bytes.set_int32_le nested 4 0x7FFF_FFF8l;
  assert_bounded_alloc ~name:"direct-sos child len" (fun () ->
      Resilient.For_tests.parse_direct_sos ~seed nested = None)

let test_sketch_decoders_hostile_sizes () =
  (* The sketch/encoding parsers size their allocations from trusted local
     parameters, never from the byte string: a body of the wrong size — tiny
     or enormous relative to what the params imply — is rejected cheaply. *)
  let prm : Iblt.params = { cells = 8; k = 3; key_len = 8; seed = 2L } in
  assert_bounded_alloc ~name:"iblt oversized body" (fun () ->
      Iblt.of_body_bytes_opt prm (Bytes.make 4096 '\xFF') = None);
  assert_bounded_alloc ~name:"l0 oversized body" (fun () ->
      L0.of_bytes_opt ~seed (Bytes.make 4096 '\xFF') = None);
  let cfg : Encoding.config = { child_cells = 4; child_k = 2; hash_bits = 20; seed = 2L } in
  assert_bounded_alloc ~name:"encoding oversized key" (fun () ->
      Encoding.decode_opt cfg (Bytes.make 4096 '\xFF') = None)

let () =
  Alcotest.run "transport"
    [
      ( "frame",
        [
          Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "single-bit flips detected" `Quick test_frame_single_bit_flips_detected;
          Alcotest.test_case "truncation detected" `Quick test_frame_truncation_detected;
          Alcotest.test_case "empty payload" `Quick test_frame_empty_payload;
        ] );
      ( "channel",
        [
          Alcotest.test_case "replay determinism" `Quick test_channel_replay_determinism;
          Alcotest.test_case "perfect channel" `Quick test_channel_perfect;
          Alcotest.test_case "fault recording" `Quick test_channel_fault_recording;
          Alcotest.test_case "framed transport rejects damage" `Quick
            test_channel_transport_rejects_damage;
        ] );
      ( "comm",
        [
          Alcotest.test_case "xfer accounting" `Quick test_xfer_accounting;
          Alcotest.test_case "merge_stats interleaving" `Quick test_merge_stats_interleaving;
        ] );
      ( "decoders",
        [
          Alcotest.test_case "iblt of_body_bytes_opt" `Quick test_iblt_of_body_bytes_opt;
          Alcotest.test_case "l0 of_bytes_opt" `Quick test_l0_of_bytes_opt;
          Alcotest.test_case "encoding decode_opt" `Quick test_encoding_decode_opt;
          Alcotest.test_case "codec int62" `Quick test_codec_int62;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "set recon: exhaustive single-bit" `Slow
            test_set_recon_single_bit_never_silent;
          Alcotest.test_case "sos: random single-bit" `Slow test_sos_corruption_never_silent;
          Alcotest.test_case "sos: random bursts" `Slow test_burst_corruption_never_silent;
        ] );
      ( "resilient",
        [
          Alcotest.test_case "perfect channel" `Quick test_resilient_set_perfect;
          Alcotest.test_case "retries with doubling" `Quick test_resilient_retries_then_succeeds;
          Alcotest.test_case "degrades to direct" `Quick test_resilient_degrades_to_direct;
          Alcotest.test_case "total loss is typed" `Quick test_resilient_total_loss_is_typed;
          Alcotest.test_case "sos sweep" `Slow test_resilient_sos_sweep;
          Alcotest.test_case "replay by seed" `Quick test_resilient_replay_by_seed;
        ] );
      ( "clock",
        [
          Alcotest.test_case "ordering and ties" `Quick test_clock_ordering;
          Alcotest.test_case "cancel and clamp" `Quick test_clock_cancel_and_clamp;
          Alcotest.test_case "stop condition" `Quick test_clock_stop_condition;
        ] );
      ( "duplication",
        [
          Alcotest.test_case "configurable copy count" `Quick test_channel_duplicate_copies;
          Alcotest.test_case "copy-tagged damage" `Quick test_channel_copy_tagged_damage;
        ] );
      ( "network",
        [
          Alcotest.test_case "latency" `Quick test_network_latency;
          Alcotest.test_case "replay determinism" `Quick test_network_replay_determinism;
          Alcotest.test_case "partition window" `Quick test_network_partition_window;
        ] );
      ( "arq",
        [
          Alcotest.test_case "perfect network" `Quick test_arq_perfect_network;
          Alcotest.test_case "exactly once, in order" `Slow test_arq_exactly_once_in_order;
          Alcotest.test_case "duplicate suppression" `Quick test_arq_duplicate_suppression;
          Alcotest.test_case "full partition times out" `Quick test_arq_full_partition_times_out;
        ] );
      ( "resilient-network",
        [
          Alcotest.test_case "all stacks over faults" `Slow test_resilient_network_all_stacks;
          Alcotest.test_case "deadline exceeded is typed" `Quick
            test_resilient_network_deadline_exceeded;
          Alcotest.test_case "whole-stack replay" `Quick test_resilient_network_replay;
        ] );
      ( "rateless",
        [
          Alcotest.test_case "strategy over lossy channel" `Quick test_rateless_strategy_channel;
          Alcotest.test_case "strategy over network" `Quick test_rateless_strategy_network;
          Alcotest.test_case "strategy replay by seed" `Quick test_rateless_strategy_replay;
        ] );
      ( "hardening",
        [
          Alcotest.test_case "frame huge declared length" `Quick test_frame_huge_declared_length;
          Alcotest.test_case "direct set payload" `Quick test_direct_set_hostile;
          Alcotest.test_case "direct sos huge count" `Quick test_direct_sos_huge_count;
          Alcotest.test_case "sketch decoders hostile sizes" `Quick
            test_sketch_decoders_hostile_sizes;
        ] );
    ]
