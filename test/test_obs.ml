(* Tests for the observability layer (metrics registry, trace ring) and the
   totality of every wire-facing [_opt] parser: hostile bytes through any
   decode path reachable from received frames must produce [None]/[Error],
   never an exception — and the paths that reject must tick their metrics.

   Also the cross-layer accounting contract: the byte counters the metrics
   registry accumulates during a run over the simulated network must equal
   the byte totals of the network's own delivery transcript, across seeds
   and all five protocol stacks. *)

module Prng = Ssr_util.Prng
module Iset = Ssr_util.Iset
module Buf = Ssr_util.Buf
module Iblt = Ssr_sketch.Iblt
module Rateless = Ssr_sketch.Rateless
module L0 = Ssr_sketch.L0_estimator
module Comm = Ssr_setrecon.Comm
module Rateless_recon = Ssr_setrecon.Rateless_recon
module Multiset = Ssr_setrecon.Multiset
module Parent = Ssr_core.Parent
module Protocol = Ssr_core.Protocol
module Encoding = Ssr_core.Encoding
module Cascade = Ssr_core.Cascade
module Metrics = Ssr_obs.Metrics
module Trace = Ssr_obs.Trace
module Frame = Ssr_transport.Frame
module Clock = Ssr_transport.Clock
module Network = Ssr_transport.Network
module Arq = Ssr_transport.Arq
module Resilient = Ssr_transport.Resilient

let seed = 0x0B5E_7E57L

let random_bytes rng n = Bytes.init n (fun _ -> Char.chr (Prng.int_below rng 256))

(* Metric deltas, never absolutes: the registry is process-global and other
   tests in this binary tick the same cells. *)
let delta f =
  let before = Metrics.snapshot () in
  let r = f () in
  (r, Metrics.diff ~before ~after:(Metrics.snapshot ()))

let counter_delta name f =
  let r, d = delta f in
  (r, Metrics.counter_value d name)

(* ---------- Metrics registry ---------- *)

let test_metrics_counter_diff () =
  let c = Metrics.counter "test.obs.counter" in
  let (), d =
    delta (fun () ->
        Metrics.incr c;
        Metrics.add c 41)
  in
  Alcotest.(check int) "counter delta" 42 (Metrics.counter_value d "test.obs.counter");
  (* A second empty window drops the unchanged counter entirely. *)
  let (), d2 = delta (fun () -> ()) in
  Alcotest.(check bool) "unchanged cells dropped from diff" true
    (Metrics.find d2 "test.obs.counter" = None);
  Alcotest.(check int) "absent counter reads zero" 0 (Metrics.counter_value d2 "no.such.metric")

let test_metrics_dist_diff () =
  let h = Metrics.dist "test.obs.dist" in
  let (), d =
    delta (fun () ->
        Metrics.observe h 10;
        Metrics.observe h 32)
  in
  (match Metrics.find d "test.obs.dist" with
  | Some (Metrics.Dist dd) ->
    Alcotest.(check int) "windowed count" 2 dd.count;
    Alcotest.(check int) "windowed sum" 42 dd.sum
  | _ -> Alcotest.fail "dist missing from diff")

let test_metrics_gauge_kind_clash () =
  let g = Metrics.gauge "test.obs.gauge" in
  Metrics.set g 7;
  (match Metrics.find (Metrics.snapshot ()) "test.obs.gauge" with
  | Some (Metrics.Gauge 7) -> ()
  | _ -> Alcotest.fail "gauge value not visible in snapshot");
  match Metrics.counter "test.obs.gauge" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "re-registering a gauge as a counter must raise"

let test_metrics_snapshot_deterministic () =
  let s1 = Metrics.snapshot () and s2 = Metrics.snapshot () in
  Alcotest.(check bool) "back-to-back snapshots equal" true (s1 = s2);
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) s1 in
  Alcotest.(check bool) "snapshot sorted by name" true (s1 = sorted)

let test_metrics_json_escaping () =
  let name = "test.obs.json" in
  Metrics.incr (Metrics.counter name);
  let js = Metrics.to_json (Metrics.snapshot ()) in
  Alcotest.(check bool) "object braces" true
    (String.length js >= 2 && js.[0] = '{' && js.[String.length js - 1] = '}');
  let escaped = Metrics.json_escape "a\"b\\c\nd\tteof" in
  String.iter
    (fun ch -> if Char.code ch < 0x20 then Alcotest.fail "raw control char in escaped string")
    escaped;
  Alcotest.(check bool) "quote escaped" true
    (String.length escaped > String.length "a\"b\\c\nd\tteof")

(* ---------- Trace ring ---------- *)

let test_trace_ring_wraparound () =
  Trace.set_capacity 8;
  for i = 0 to 19 do
    Trace.emit ~layer:"test" ~fields:[ ("i", Trace.I i) ] "tick"
  done;
  let evs = Trace.events () in
  Alcotest.(check int) "ring keeps capacity" 8 (List.length evs);
  Alcotest.(check int) "overwrites counted" 12 (Trace.dropped ());
  let is =
    List.map
      (fun (e : Trace.event) ->
        match e.Trace.fields with [ ("i", Trace.I i) ] -> i | _ -> -1)
      evs
  in
  Alcotest.(check (list int)) "oldest-first window" [ 12; 13; 14; 15; 16; 17; 18; 19 ] is;
  Trace.set_capacity 4096

let test_trace_time_source () =
  Trace.set_capacity 16;
  Trace.set_time_source (fun () -> 777);
  Trace.emit ~layer:"test" "stamped";
  (match List.rev (Trace.events ()) with
  | e :: _ -> Alcotest.(check int) "pluggable timestamp" 777 e.Trace.t_us
  | [] -> Alcotest.fail "no event buffered");
  Trace.clear_time_source ();
  let js = String.trim (Trace.to_json ()) in
  Alcotest.(check bool) "array brackets" true
    (String.length js >= 2 && js.[0] = '[' && js.[String.length js - 1] = ']');
  Trace.set_capacity 4096

(* ---------- Totality of the wire-facing parsers ---------- *)

let test_get_int_le_opt_total () =
  let b = Bytes.create 8 in
  Buf.set_int_le b 0 123456789;
  Alcotest.(check (option int)) "roundtrip" (Some 123456789) (Buf.get_int_le_opt b 0);
  Alcotest.(check (option int)) "short buffer" None (Buf.get_int_le_opt (Bytes.create 7) 0);
  Alcotest.(check (option int)) "offset out of range" None (Buf.get_int_le_opt b 1);
  Alcotest.(check (option int)) "negative offset" None (Buf.get_int_le_opt b (-1));
  let top = Bytes.make 8 '\x00' in
  Bytes.set top 7 '\x80' (* int64 min: does not fit a native 63-bit int *);
  Alcotest.(check (option int)) "64-bit overflow" None (Buf.get_int_le_opt top 0)

let test_decode_ints_hostile_keys () =
  (* A legitimately inserted key whose bytes decode to a negative integer:
     peeling succeeds, integer conversion must reject without raising and
     tick the bad-key counter — and never double-count as a peel failure. *)
  let t = Iblt.create { cells = 16; k = 3; key_len = 8; seed } in
  Iblt.insert t (Bytes.make 8 '\xFF');
  let r, d = delta (fun () -> Iblt.decode_ints t) in
  (match r with
  | Error `Peel_stuck -> ()
  | Ok _ -> Alcotest.fail "negative key must not decode to an int");
  Alcotest.(check int) "bad key counted" 1 (Metrics.counter_value d "iblt.decode.bad_int_keys");
  Alcotest.(check int) "attempts = success + stuck"
    (Metrics.counter_value d "iblt.decode.attempts")
    (Metrics.counter_value d "iblt.decode.success"
    + Metrics.counter_value d "iblt.decode.stuck");
  (* Int64-min key: the stored word does not even fit a native int. *)
  let t2 = Iblt.create { cells = 16; k = 3; key_len = 8; seed } in
  let k = Bytes.make 8 '\x00' in
  Bytes.set k 7 '\x80';
  Iblt.insert t2 k;
  match Iblt.decode_ints t2 with
  | Error `Peel_stuck -> ()
  | Ok _ -> Alcotest.fail "overflowing key must not decode to an int"

(* A genuine key and checksum in one of its cells but missing from the
   others (bytes sliced under other parameters, or crafted) make a pure
   cell that peeling re-creates: peel it, its other cells turn pure with
   the opposite sign, peel one, and the first cell holds the key again.
   The peel must stop and report the table stuck. *)
let test_peel_terminates () =
  let prm : Iblt.params = { cells = 8; k = 4; key_len = 8; seed } in
  let t = Iblt.create prm in
  let key = Bytes.of_string "\x2a\x00\x00\x00\x00\x00\x00\x00" in
  Iblt.insert t key;
  let body = Iblt.body_bytes t in
  let home = (Iblt.positions t key).(0) in
  Array.iter
    (fun c -> if c <> home then Bytes.fill body (c * 20) 20 '\000')
    (Iblt.positions t key);
  match Iblt.of_body_bytes_opt prm body with
  | None -> Alcotest.fail "well-formed body rejected"
  | Some t -> (
    match Iblt.decode t with
    | Error `Peel_stuck -> ()
    | Ok _ -> Alcotest.fail "a table holding a key in one of its cells decoded")

let test_frame_decode_fuzz () =
  let rng = Prng.create ~seed:(Prng.derive ~seed ~tag:0xF1) in
  let n_cases = 300 in
  let (), d =
    delta (fun () ->
        for _ = 1 to n_cases do
          let n = Prng.int_below rng 64 in
          ignore (Frame.decode (random_bytes rng n))
        done)
  in
  let rejects =
    Metrics.counter_value d "frame.rejects.truncated"
    + Metrics.counter_value d "frame.rejects.bad_version"
    + Metrics.counter_value d "frame.rejects.length"
    + Metrics.counter_value d "frame.rejects.crc"
  in
  Alcotest.(check int) "every fuzz case lands in ok or a typed reject" n_cases
    (rejects + Metrics.counter_value d "frame.decoded.ok")

let test_encoding_decode_opt_fuzz () =
  let cfg : Encoding.config = { child_cells = 12; child_k = 3; hash_bits = 16; seed } in
  let width = Encoding.key_length cfg in
  let rng = Prng.create ~seed:(Prng.derive ~seed ~tag:0xE2) in
  for n = 0 to 2 * width do
    if n <> width then
      if Encoding.decode_opt cfg (random_bytes rng n) <> None then
        Alcotest.failf "wrong-size (%d) encoding accepted" n
  done;
  (* Right-sized random bytes parse structurally (content is garbage but the
     shape is total); a genuine encoding roundtrips. *)
  (match Encoding.decode_opt cfg (random_bytes rng width) with
  | Some _ -> ()
  | None -> Alcotest.fail "right-sized bytes must parse structurally");
  let child = Iset.of_list [ 3; 17; 4242 ] in
  match Encoding.decode_opt cfg (Encoding.encode cfg child) with
  | Some (_, h) -> Alcotest.(check int) "hash field roundtrips" (Encoding.child_hash cfg child) h
  | None -> Alcotest.fail "genuine encoding rejected"

(* The one "tables || 8-byte guard" message of naive, the nested engine,
   multiround's round 1 and sos3, fuzzed through a transport that hands
   Bob mutated bytes: one table, and a cascade with two levels plus T*. *)
let test_xfer_guarded_fuzz () =
  let rng = Prng.create ~seed:(Prng.derive ~seed ~tag:0xE9) in
  let plan = Cascade.plan ~seed ~enc_seed:seed ~d:4 ~d_hat:4 ~s_bound:8 ~u:64 ~h:4 ~k:3 in
  let star = match plan.Cascade.star with Some (_, prm) -> [ prm ] | None -> [] in
  let cascade = List.map (fun l -> l.Cascade.outer) (Array.to_list plan.Cascade.per_level) @ star in
  Alcotest.(check int) "cascade shape: two levels plus T*" 3 (List.length cascade);
  let one : Iblt.params = { cells = 12; k = 3; key_len = 8; seed } in
  List.iter
    (fun (shape, params) ->
      let tables =
        Array.of_list
          (List.map
             (fun (prm : Iblt.params) ->
               let t = Iblt.create prm in
               for _ = 1 to 3 do
                 Iblt.insert t (random_bytes rng prm.Iblt.key_len)
               done;
               t)
             params)
      in
      let guard = 0x2A5A_5A5A_5A5A_5A5A in
      let wire = ref Bytes.empty in
      let send mutate =
        let comm = Comm.create () in
        Comm.set_transport comm
          {
            Comm.transmit =
              (fun _ ~label:_ b ->
                wire := Bytes.copy b;
                mutate b);
            overhead_bits = 0;
          };
        Comm.parse_guarded (Array.map Iblt.params tables)
          (Comm.xfer comm Comm.A_to_b ~label:"fuzz" (Comm.guarded tables ~guard))
      in
      (match send Option.some with
      | Some (got, g) ->
        Alcotest.(check int) (shape ^ ": guard roundtrips") guard g;
        Array.iteri
          (fun i t ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: table %d roundtrips" shape i)
              true
              (Bytes.equal (Iblt.body_bytes t) (Iblt.body_bytes got.(i))))
          tables
      | None -> Alcotest.failf "%s: intact message rejected" shape);
      let n = Bytes.length !wire in
      let rejects what mutate =
        if send (fun b -> Some (mutate b)) <> None then Alcotest.failf "%s: %s accepted" shape what
      in
      for len = 0 to n - 1 do
        rejects (Printf.sprintf "truncation to %d of %d bytes" len n) (fun b -> Bytes.sub b 0 len)
      done;
      rejects "one-byte extension" (fun b -> Bytes.cat b (Bytes.make 1 '\000'));
      List.iter
        (fun bit ->
          rejects (Printf.sprintf "guard with bit 0x%x set" bit) (fun b ->
              let b = Bytes.copy b in
              Bytes.set b (n - 1) (Char.chr (Char.code (Bytes.get b (n - 1)) lor bit));
              b))
        [ 0x80; 0x40 ];
      if send (fun _ -> None) <> None then Alcotest.failf "%s: lost message accepted" shape;
      for _ = 1 to 50 do
        ignore (send (fun _ -> Some (random_bytes rng n)))
      done)
    [ ("one table", [ one ]); ("two levels + T*", cascade) ]

(* Every message of the plain protocols, fuzzed at the protocol level: a
   transport hands the receiver of the targeted message (its first
   occurrence) every truncation, a one-byte extension, single-bit flips
   and random payloads of the exact length, and passes every other message
   through. No run may raise or end in a wrong result. [`Fails]: a lost,
   truncated or extended message must end in the protocol's typed failure
   ([false] for the isomorphism check), and damaged content in that or in
   the correct result. [`Harmless]: every run must reach the correct
   result — Bob's control requests change nothing, because Alice goes on
   whether they arrive or not. *)
type verdict = Correct | Failed | Wrong

let fuzz_protocol_message ~name ~target ~damage run =
  let rng = Prng.create ~seed:(Prng.derive ~seed ~tag:(Hashtbl.hash name)) in
  let seen = ref 0 in
  let go mutate =
    let comm = Comm.create () in
    let hit = ref false in
    Comm.set_transport comm
      {
        Comm.transmit =
          (fun _ ~label b ->
            if label = target && not !hit then begin
              hit := true;
              seen := Bytes.length b;
              mutate (Bytes.copy b)
            end
            else Some b);
        overhead_bits = 0;
      };
    let v = run comm in
    if not !hit then Alcotest.failf "%s: no %s message" name target;
    v
  in
  if go Option.some <> Correct then Alcotest.failf "%s: intact run failed" name;
  let n = !seen in
  let expect ~must_fail what mutate =
    match (go mutate, damage) with
    | Wrong, _ -> Alcotest.failf "%s: %s ended in a wrong result" name what
    | Correct, `Fails when must_fail -> Alcotest.failf "%s: %s was accepted" name what
    | Failed, `Harmless -> Alcotest.failf "%s: %s made the run fail" name what
    | _ -> ()
  in
  expect ~must_fail:true "a lost message" (fun _ -> None);
  for len = 0 to n - 1 do
    expect ~must_fail:true (Printf.sprintf "truncation to %d of %d bytes" len n) (fun b ->
        Some (Bytes.sub b 0 len))
  done;
  expect ~must_fail:true "a one-byte extension" (fun b -> Some (Bytes.cat b (Bytes.make 1 '\000')));
  let bits = 8 * n in
  for i = 0 to min bits 2048 - 1 do
    let bit = if bits <= 2048 then i else Prng.int_below rng bits in
    expect ~must_fail:false (Printf.sprintf "flip of bit %d" bit) (fun b ->
        Bytes.set b (bit / 8) (Char.chr (Char.code (Bytes.get b (bit / 8)) lxor (1 lsl (bit mod 8))));
        Some b)
  done;
  for _ = 1 to 20 do
    expect ~must_fail:false "random bytes" (fun _ -> Some (random_bytes rng n))
  done

let test_protocol_message_fuzz () =
  let module Set_recon = Ssr_setrecon.Set_recon in
  let module Two_way = Ssr_setrecon.Two_way in
  let module Multi_party = Ssr_setrecon.Multi_party in
  let module Multiset_recon = Ssr_setrecon.Multiset_recon in
  let module Cpi = Ssr_setrecon.Cpi_recon in
  let module Poly_protocol = Ssr_graphrecon.Poly_protocol in
  let module Graph = Ssr_graphs.Graph in
  let module Iso = Ssr_graphs.Iso in
  let rng = Prng.create ~seed:(Prng.derive ~seed ~tag:0xEA) in
  let set size = Iset.random_subset rng ~universe:(1 lsl 30) ~size in
  let alice = set 30 in
  let bob = Iset.union (Iset.of_list (List.tl (Iset.to_list alice))) (set 2) in
  (* Far enough from Alice that a bound of 1 fails and Bob asks again. *)
  let far = Iset.union bob (set 12) in
  let verdict ok = function Some got -> if ok got then Correct else Wrong | None -> Failed in
  let set_verdict = function
    | Ok (o : Set_recon.outcome) -> verdict (Iset.equal alice) (Some o.Set_recon.recovered)
    | Error _ -> Failed
  in
  let m_alice = Multiset.of_pairs (List.init 20 (fun i -> (i, 1 + (i mod 3)))) in
  let m_bob = Multiset.add 3 (Multiset.add 25 m_alice) in
  let two_way comm =
    match Two_way.run_unknown_d ~comm ~seed ~alice ~bob () with
    | Ok o -> verdict (Iset.equal (Iset.union alice bob)) (Some o.Two_way.union)
    | Error `Decode_failure -> Failed
  in
  (* The estimator variants of naive and multiround: Bob sizes Alice's
     table from the length he is delivered. *)
  let p_bob = Parent.random rng ~universe:(1 lsl 12) ~children:6 ~child_size:8 in
  let p_alice, _ = Parent.perturb rng ~universe:(1 lsl 12) ~edits:2 p_bob in
  let unknown kind comm =
    match Protocol.run_unknown kind ~comm ~seed ~u:(1 lsl 12) ~h:12 ~alice:p_alice ~bob:p_bob with
    | Ok o -> verdict (Parent.equal p_alice) (Some o.Protocol.recovered)
    | Error `Decode_failure -> Failed
  in
  let g = Ssr_graphs.Gnp.sample rng ~n:5 ~p:0.5 in
  let g' = Graph.relabel g [| 2; 0; 4; 1; 3 |] in
  let h = Graph.flip_random_edges rng g 1 in
  List.iter
    (fun (name, target, damage, run) -> fuzz_protocol_message ~name ~target ~damage run)
    [
      ( "cpi set", "cpi-evals+size", `Fails,
        fun comm ->
          match Cpi.run_known_d ~comm ~seed ~d:4 ~alice ~bob with
          | Ok o -> verdict (Iset.equal alice) (Some o.Cpi.recovered)
          | Error `Bound_too_small -> Failed );
      ( "cpi multiset", "cpi-evals+size", `Fails,
        fun comm ->
          let a = Multiset.to_pairs m_alice in
          match Cpi.run_multiset_known_d ~comm ~seed ~d:4 ~alice:a ~bob:(Multiset.to_pairs m_bob) with
          | Ok (got, _) -> verdict (( = ) a) (Some got)
          | Error `Bound_too_small -> Failed );
      ( "multiset iblt", "multiset-iblt+hash", `Fails,
        fun comm ->
          match Multiset_recon.run_known_d ~comm ~seed ~d:4 ~alice:m_alice ~bob:m_bob with
          | Ok o -> verdict (Multiset.equal m_alice) (Some o.Multiset_recon.recovered)
          | Error `Decode_failure -> Failed );
      ("naive unknown d", "naive-iblt+digest", `Fails, unknown Protocol.Naive);
      ("multiround unknown d", "hash-iblt+digest", `Fails, unknown Protocol.Multiround);
      ("two-way estimator", "estimator", `Fails, two_way);
      ("two-way first leg", "iblt+hash", `Fails, two_way);
      ("two-way return leg", "b-minus-a", `Fails, two_way);
      ( "broadcast", "broadcast-iblt+hash", `Fails,
        fun comm ->
          let parties = [| alice; bob; Iset.add 7 alice |] in
          match Multi_party.run_broadcast ~comm ~seed ~d:4 ~parties with
          | Ok o ->
            let union = Array.fold_left Iset.union Iset.empty parties in
            verdict (Iset.equal union) (Some o.Multi_party.union)
          | Error (`Decode_failure _) -> Failed );
      ( "isomorphism check, isomorphic", "r+p_A(r)", `Fails,
        fun comm -> if Poly_protocol.run_isomorphism_check ~comm ~seed g g' then Correct else Failed );
      ( "isomorphism check, not isomorphic", "r+p_A(r)", `Harmless,
        fun comm -> if Poly_protocol.run_isomorphism_check ~comm ~seed g h then Wrong else Correct );
      ( "graph reconciliation", "r+p_A(r)", `Fails,
        fun comm ->
          verdict (Iso.is_isomorphic h) (Poly_protocol.run_reconcile ~comm ~seed ~d:1 ~alice:h ~bob:g') );
      ( "retry", "retry", `Harmless,
        fun comm ->
          set_verdict
            (Comm.retry_doubling comm ~retries:(Metrics.counter "test.obs.fuzz.retries") ~d:1
               ~stop:(fun ~attempt ~d:_ -> attempt >= 8)
               (fun ~attempt ~d ->
                 Set_recon.run_known_d ~comm ~seed:(Prng.derive ~seed ~tag:attempt) ~d ~alice
                   ~bob:far)) );
    ]

(* Multiround's round 2 carries Bob's hash table TB; Alice decodes her own
   table minus the TB she receives, so one damaged byte of it -- in a
   count, a key or a checksum field -- must end the run in a detected
   failure, never in a result taken from Bob's memory. *)
let test_multiround_damaged_hash_table () =
  let u = 1 lsl 12 in
  let rng = Prng.create ~seed:(Prng.derive ~seed ~tag:0xE6) in
  let bob = Parent.random rng ~universe:u ~children:16 ~child_size:10 in
  let alice, _ = Parent.perturb rng ~universe:u ~edits:4 bob in
  let d = max 2 (Parent.relaxed_matching_cost alice bob) in
  let d_hat = min d (max 2 (Parent.cardinal bob)) in
  let run damage =
    let comm = Comm.create () in
    Comm.set_transport comm
      {
        Comm.transmit =
          (fun _ ~label b ->
            if label = "hash-iblt+child-estimators" then Some (damage (Bytes.copy b))
            else Some b);
        overhead_bits = 0;
      };
    Protocol.run_known_stream Protocol.Multiround ~comm ~seed ~enc_seed:None ~d ~u ~h:16
      ~alice:(Parent.stream_of_t alice) ~bob:(Parent.stream_of_t bob)
  in
  (match run Fun.id with
  | Ok o ->
    Alcotest.(check bool) "intact run recovers" true
      (Parent.equal (Parent.apply_delta bob o.Protocol.delta) alice)
  | Error `Decode_failure -> Alcotest.fail "intact run failed");
  (* The TB body leads the message: cells of [i32 count | 8-byte key |
     8-byte checksum]. *)
  let cells = Iblt.recommended_cells ~k:4 ~diff_bound:(2 * d_hat) in
  List.iter
    (fun cell ->
      List.iter
        (fun (field, at) ->
          let pos = (cell * 20) + at in
          match
            run (fun b ->
                Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x01));
                b)
          with
          | Error `Decode_failure -> ()
          | Ok _ -> Alcotest.failf "damaged %s of TB cell %d accepted" field cell)
        [ ("count", 0); ("key", 4); ("checksum", 12) ])
    [ 0; 1; cells - 1 ]

let test_l0_of_bytes_opt_fuzz () =
  let rng = Prng.create ~seed:(Prng.derive ~seed ~tag:0xE3) in
  let est = L0.create ~seed () in
  let good = L0.to_bytes est in
  let width = Bytes.length good in
  Alcotest.(check bool) "roundtrip parses" true (L0.of_bytes_opt ~seed good <> None);
  Alcotest.(check bool) "short rejected" true
    (L0.of_bytes_opt ~seed (Bytes.sub good 0 (width - 1)) = None);
  Alcotest.(check bool) "long rejected" true
    (L0.of_bytes_opt ~seed (Bytes.cat good (Bytes.make 1 'x')) = None);
  (* Same-width corrupted content must be masked into a well-formed
     estimator, not raise. *)
  for _ = 1 to 20 do
    match L0.of_bytes_opt ~seed (random_bytes rng width) with
    | Some _ -> ()
    | None -> Alcotest.fail "right-sized corrupted estimator rejected instead of masked"
  done

let test_multiset_pair_keys_opt_fuzz () =
  let ms = Multiset.of_list [ 5; 5; 9 ] in
  let keys = Multiset.pair_keys ms ~key_len:16 in
  (match Multiset.of_pair_keys_opt keys with
  | Some ms' -> Alcotest.(check bool) "roundtrip" true (Multiset.equal ms ms')
  | None -> Alcotest.fail "genuine pair keys rejected");
  Alcotest.(check bool) "short key" true (Multiset.of_pair_keys_opt [ Bytes.create 15 ] = None);
  let neg_elt = Bytes.make 16 '\x00' in
  Bytes.fill neg_elt 0 8 '\xFF';
  Buf.set_int_le neg_elt 8 1;
  Alcotest.(check bool) "negative element" true (Multiset.of_pair_keys_opt [ neg_elt ] = None);
  let zero_count = Bytes.make 16 '\x00' in
  Buf.set_int_le zero_count 0 7;
  Alcotest.(check bool) "zero multiplicity" true
    (Multiset.of_pair_keys_opt [ zero_count ] = None);
  let rng = Prng.create ~seed:(Prng.derive ~seed ~tag:0xE4) in
  for _ = 1 to 100 do
    ignore (Multiset.of_pair_keys_opt [ random_bytes rng 16; random_bytes rng 16 ])
  done

(* The rateless peel's bound. Key 123456789's member cells in [0, 64)
   under seed 0x5EED are 0, 2, 3, 4, 13, 18, 31, 38, 42 and 44; a window
   holding the key in cell 0 alone makes a decoder with an empty pool peel
   it there with one sign, then out of its other member cells with the
   other, and so on without end. The peels stop at one per absorbed
   cell. *)
let rl_seed = 0x5EEDL
let rl_key = 123456789

let crafted_window ~lo ~hi cells =
  let cb = Rateless.cell_bytes in
  let cells = Bytes.copy cells in
  Seq.iter
    (fun i -> if i > 0 && i >= lo && i < hi then Bytes.fill cells ((i - lo) * cb) cb '\000')
    (Seq.take_while (fun i -> i < hi) (Rateless.walk_int ~seed:rl_seed rl_key));
  cells

let test_rateless_crafted_window_terminates () =
  Alcotest.(check (list int)) "member cells below 64" [ 0; 2; 3; 4; 13; 18; 31; 38; 42; 44 ]
    (List.of_seq (Seq.take_while (fun i -> i < 64) (Rateless.walk_int ~seed:rl_seed rl_key)));
  let src = Rateless.source_of_ints ~seed:rl_seed [| rl_key |] in
  let window = crafted_window ~lo:0 ~hi:64 (Rateless.cells src ~lo:0 ~hi:64) in
  let dec = Rateless.decoder_of_ints ~seed:rl_seed [||] in
  Alcotest.(check int) "absorbed" 64 (Rateless.absorb dec ~lo:0 window);
  Alcotest.(check bool) "peels bounded by the absorbed cells" true (Rateless.peeled dec <= 64);
  Alcotest.(check bool) "no decode candidate" true (Rateless.decoded_ints dec = None)

(* The same window through the protocol: a transport that rewrites the
   first "rateless-cells" window so, and the stream must end in a typed
   failure, not a loop. *)
let test_rateless_crafted_stream_fails () =
  let comm = Comm.create () in
  let cell_bytes = Rateless.cell_bytes in
  let first = ref true in
  Comm.set_transport comm
    {
      Comm.transmit =
        (fun _ ~label b ->
          if !first && label = "rateless-cells" then begin
            first := false;
            match Rateless_recon.window_of_bytes_opt b with
            | Some (lo, alice_hash, cells) ->
              let hi = lo + (Bytes.length cells / cell_bytes) in
              Some
                (Rateless_recon.encode_window ~lo ~alice_hash
                   ~cells:(crafted_window ~lo ~hi cells))
            | None -> Alcotest.fail "Alice's window did not parse"
          end
          else Some b);
      overhead_bits = 0;
    };
  match Rateless_recon.run ~comm ~seed:rl_seed ~alice:(Iset.of_list [ rl_key ]) ~bob:Iset.empty () with
  | Ok _ -> Alcotest.fail "a stream whose first window was crafted decoded"
  | Error `Decode_failure -> ()

(* Structure-aware mutations of a d = 64 stream's genuine "rateless-cells"
   windows, which keep every cell's checksum valid and so reach the peeler
   where random bytes do not: the second window's [lo] shifted, an earlier
   window delivered again or late in place of a later one, and single
   cells of the second window zeroed, swapped or copied. Each run must end
   in [Ok] with Alice's set or in a typed [Error], with no more peels than
   absorbed cells (counted by the decoder's rule over the windows that
   parse). A window moved to the top of the index space must not make Bob
   allocate by that index. *)
let test_rateless_structural_mutations () =
  let rng = Prng.create ~seed:(Prng.derive ~seed ~tag:0xE8) in
  let keys = Iset.to_array (Iset.random_subset rng ~universe:(1 lsl 30) ~size:432) in
  let bob = Iset.of_list (Array.to_list (Array.sub keys 0 400)) in
  let alice = Iset.of_list (Array.to_list (Array.sub keys 32 400)) in
  let cb = Rateless.cell_bytes in
  let parse w =
    match Rateless_recon.window_of_bytes_opt w with
    | Some window -> window
    | None -> Alcotest.fail "Alice's window did not parse"
  in
  let move_lo f w =
    let lo, alice_hash, cells = parse w in
    Some (Rateless_recon.encode_window ~lo:(f lo (Bytes.length cells / cb)) ~alice_hash ~cells)
  in
  let edit_cells f w =
    let lo, alice_hash, cells = parse w in
    f cells;
    Some (Rateless_recon.encode_window ~lo ~alice_hash ~cells)
  in
  let cell c i = Bytes.sub c (i * cb) cb and put c i v = Bytes.blit v 0 c (i * cb) cb in
  (* [rewrite sent k]: what Bob gets in cycle [k], given every window Alice
     has sent so far, newest first. *)
  let second f sent k = if k = 1 then f (List.hd sent) else Some (List.hd sent) in
  let cases =
    [
      ("lo - 1", second (move_lo (fun lo _ -> lo - 1)));
      ("lo + 1", second (move_lo (fun lo _ -> lo + 1)));
      ("lo + count", second (move_lo (fun lo count -> lo + count)));
      ("lo = max_index - count", second (move_lo (fun _ count -> Rateless.max_index - count)));
      ("window delivered twice", fun sent k -> Some (List.nth sent (if k = 1 then 1 else 0)));
      ( "window delivered late",
        fun sent k -> if k = 1 then None else Some (List.nth sent (if k = 2 then 1 else 0)) );
      ("cell zeroed", second (edit_cells (fun c -> Bytes.fill c 0 cb '\000')));
      ( "cells swapped",
        second
          (edit_cells (fun c ->
               let c0 = cell c 0 in
               put c 0 (cell c 1);
               put c 1 c0)) );
      ("cell duplicated", second (edit_cells (fun c -> put c 1 (cell c 0))));
    ]
  in
  List.iter
    (fun (name, rewrite) ->
      let comm = Comm.create () in
      let sent = ref [] and absorbed = ref 0 and next = ref 0 in
      Comm.set_transport comm
        {
          Comm.transmit =
            (fun _ ~label b ->
              if label <> "rateless-cells" then Some b
              else begin
                sent := b :: !sent;
                let delivered = rewrite !sent (List.length !sent - 1) in
                (match Option.bind delivered Rateless_recon.window_of_bytes_opt with
                | Some (lo, _, cells) ->
                  let stop = min (lo + (Bytes.length cells / cb)) Rateless.max_index in
                  if max lo !next < stop then begin
                    absorbed := !absorbed + stop - max lo !next;
                    next := stop
                  end
                | None -> ());
                delivered
              end);
          overhead_bits = 0;
        };
      let bytes0 = Gc.allocated_bytes () in
      let result, peels =
        counter_delta "rateless.peeled" (fun () ->
            Rateless_recon.run ~comm ~seed ~max_cells:4096 ~alice ~bob ())
      in
      let bytes = Gc.allocated_bytes () -. bytes0 in
      (match result with
      | Ok o ->
        Alcotest.(check bool)
          (name ^ ": Ok is Alice's set")
          true
          (Iset.equal o.Ssr_setrecon.Set_recon.recovered alice)
      | Error `Decode_failure -> ());
      if peels > !absorbed then
        Alcotest.failf "%s: %d peels from %d absorbed cells" name peels !absorbed;
      (* One byte per index up to 2^26 would be 64 MB. *)
      if bytes > 8e6 then Alcotest.failf "%s: allocated %.0f bytes" name bytes)
    cases

(* Bob checks the whole-set hash the windows deliver, not Alice's: a
   transport that flips one bit of that field in every window must end
   the stream in a detected failure, though every cell arrives intact. *)
let test_rateless_delivered_hash () =
  let rng = Prng.create ~seed:(Prng.derive ~seed ~tag:0xE7) in
  let alice = Iset.random_subset rng ~universe:(1 lsl 30) ~size:200 in
  let bob = Iset.union alice (Iset.random_subset rng ~universe:(1 lsl 30) ~size:6) in
  let run flip =
    let comm = Comm.create () in
    Comm.set_transport comm
      {
        Comm.transmit =
          (fun _ ~label b ->
            if flip && label = "rateless-cells" then begin
              (* The hash field: bytes 8..15 of the window header. *)
              let b = Bytes.copy b in
              Bytes.set b 8 (Char.chr (Char.code (Bytes.get b 8) lxor 0x01));
              Some b
            end
            else Some b);
        overhead_bits = 0;
      };
    Rateless_recon.run ~comm ~seed ~max_cells:1024 ~alice ~bob ()
  in
  (match run false with
  | Ok o -> Alcotest.(check bool) "intact stream recovers" true (Iset.equal o.Ssr_setrecon.Set_recon.recovered alice)
  | Error `Decode_failure -> Alcotest.fail "intact stream failed");
  match run true with
  | Ok _ -> Alcotest.fail "a stream whose delivered hash is wrong was accepted"
  | Error `Decode_failure -> ()

let test_direct_payload_parsers_fuzz () =
  let rng = Prng.create ~seed:(Prng.derive ~seed ~tag:0xE5) in
  for _ = 1 to 200 do
    let b = random_bytes rng (Prng.int_below rng 96) in
    ignore (Resilient.For_tests.parse_direct_set ~seed b);
    ignore (Resilient.For_tests.parse_direct_sos ~seed b)
  done

(* The rateless cell-window and ACK wire formats: total parsing, exact
   length agreement with the claimed count (validated before any
   allocation), and no exception on any hostile input. *)
let test_rateless_wire_fuzz () =
  let rng = Prng.create ~seed:(Prng.derive ~seed ~tag:0xE6) in
  let src = Rateless.source_of_ints ~seed (Array.init 64 (fun i -> i * 3)) in
  let cell_bytes = Rateless.cell_bytes in
  let good =
    Rateless_recon.encode_window ~lo:7 ~alice_hash:0x1234
      ~cells:(Rateless.cells src ~lo:7 ~hi:19)
  in
  (match Rateless_recon.window_of_bytes_opt good with
  | Some (7, 0x1234, cells) ->
    Alcotest.(check int) "cells round-trip" (12 * cell_bytes) (Bytes.length cells)
  | _ -> Alcotest.fail "canonical window must parse");
  (* Truncations and a trailing byte. *)
  for n = 0 to Bytes.length good - 1 do
    if Rateless_recon.window_of_bytes_opt (Bytes.sub good 0 n) <> None then
      Alcotest.failf "window truncation to %d bytes accepted" n
  done;
  Alcotest.(check bool) "window trailing byte rejected" true
    (Rateless_recon.window_of_bytes_opt (Bytes.cat good (Bytes.make 1 'x')) = None);
  (* A huge claimed count must be rejected before any allocation. *)
  let huge = Bytes.copy good in
  Bytes.set_int32_le huge 4 0xFFFF_FFFFl;
  Alcotest.(check bool) "huge claimed count rejected" true
    (Rateless_recon.window_of_bytes_opt huge = None);
  (* A window claiming to extend past the stream bound is rejected. *)
  let far = Bytes.copy good in
  Bytes.set_int32_le far 0 (Int32.of_int (Rateless.max_index - 1));
  Alcotest.(check bool) "window past max_index rejected" true
    (Rateless_recon.window_of_bytes_opt far = None);
  (* Single-byte corruptions of a genuine window, then pure noise: Some or
     None, never raise; an accepted parse's cells stay length-consistent. *)
  let check_total b =
    match Rateless_recon.window_of_bytes_opt b with
    | None -> ()
    | Some (lo, _hash, cells) ->
      if lo < 0 || Bytes.length cells mod cell_bytes <> 0 then
        Alcotest.fail "accepted window is inconsistent"
  in
  for _ = 1 to 200 do
    let b = Bytes.copy good in
    let i = Prng.int_below rng (Bytes.length b) in
    Bytes.set b i (Char.chr (Prng.int_below rng 256));
    check_total b
  done;
  for _ = 1 to 200 do
    check_total (random_bytes rng (Prng.int_below rng 300))
  done;
  (* The 5-byte ACK: canonical forms parse, everything else is None. *)
  (match Rateless_recon.ack_of_bytes_opt (Rateless_recon.encode_ack ~done_:true ~have:42) with
  | Some (true, 42) -> ()
  | _ -> Alcotest.fail "canonical ack must parse");
  (match Rateless_recon.ack_of_bytes_opt (Rateless_recon.encode_ack ~done_:false ~have:0) with
  | Some (false, 0) -> ()
  | _ -> Alcotest.fail "canonical not-done ack must parse");
  let bad_flag = Rateless_recon.encode_ack ~done_:false ~have:9 in
  Bytes.set_uint8 bad_flag 0 2;
  Alcotest.(check bool) "non-boolean done flag rejected" true
    (Rateless_recon.ack_of_bytes_opt bad_flag = None);
  for n = 0 to 4 do
    if Rateless_recon.ack_of_bytes_opt (Bytes.make n 'a') <> None then
      Alcotest.failf "%d-byte ack accepted" n
  done;
  Alcotest.(check bool) "6-byte ack rejected" true
    (Rateless_recon.ack_of_bytes_opt (Bytes.make 6 '\000') = None);
  for _ = 1 to 200 do
    ignore (Rateless_recon.ack_of_bytes_opt (random_bytes rng (Prng.int_below rng 12)))
  done

(* The server wire format: every path through [decode_opt] must be total
   — truncations, corruptions and pure noise return [None] or a
   range-consistent parse, never an exception. *)
let test_server_wire_fuzz () =
  let module Wire = Ssr_server.Wire in
  let rng = Prng.create ~seed:(Prng.derive ~seed ~tag:0xE7) in
  let goods =
    List.map Wire.encode
      [
        { Wire.shard = 3; session = 9; msg = Wire.Req { l0 = random_bytes rng 600 } };
        { Wire.shard = 0; session = 1; msg = Wire.Reject { retry_after_us = 10_000 } };
        {
          Wire.shard = 2;
          session = 5;
          msg =
            Wire.Sketch
              {
                version = 4242;
                n = 17;
                xor_hash = 0xBEEF;
                lo = 64;
                body = random_bytes rng (3 * Rateless.cell_bytes);
              };
        };
        { Wire.shard = 2; session = 5; msg = Wire.More { have = 128 } };
        { Wire.shard = 2; session = 5; msg = Wire.Done { ok = true } };
        { Wire.shard = 2; session = 5; msg = Wire.Fin { ok = false } };
        { Wire.shard = 7; session = 8; msg = Wire.Mutate { add = false; key = 123_456 } };
        { Wire.shard = 7; session = 8; msg = Wire.Mut_ack { version = 77 } };
      ]
  in
  let check_total b =
    match Wire.decode_opt b with
    | None -> ()
    | Some { Wire.shard; session; msg } ->
      if shard < 0 || shard > 0xFFFF || session < 0 then
        Alcotest.fail "accepted packet out of header range";
      (match msg with
      | Wire.Req { l0 } ->
        if Bytes.length l0 > 8192 then Alcotest.fail "oversized l0 accepted"
      | Wire.Sketch { version; n; xor_hash; lo; body = cells } ->
        let cb = Rateless.cell_bytes in
        if
          version < 0 || n < 0 || xor_hash < 0 || lo < 0
          || Bytes.length cells mod cb <> 0
          || lo + (Bytes.length cells / cb) > Rateless.max_index
        then Alcotest.fail "accepted sketch out of range"
      | Wire.More { have } -> if have < 0 then Alcotest.fail "negative have accepted"
      | Wire.Mutate { key; _ } -> if key < 0 then Alcotest.fail "negative key accepted"
      | Wire.Mut_ack { version } ->
        if version < 0 then Alcotest.fail "negative version accepted"
      | Wire.Reject _ | Wire.Done _ | Wire.Fin _ -> ())
  in
  List.iter
    (fun good ->
      (* The canonical encoding parses; every strict truncation is rejected
         (each message's length is pinned exactly). *)
      (match Wire.decode_opt good with
      | Some p -> Alcotest.(check bytes) "re-encode identical" good (Wire.encode p)
      | None -> Alcotest.fail "canonical encoding rejected");
      for n = 0 to Bytes.length good - 1 do
        if Wire.decode_opt (Bytes.sub good 0 n) <> None then
          Alcotest.failf "truncation to %d bytes accepted" n
      done;
      Alcotest.(check bool) "trailing byte rejected" true
        (Wire.decode_opt (Bytes.cat good (Bytes.make 1 'x')) = None);
      (* Single-byte corruptions: total, and anything accepted stays in
         range. *)
      for _ = 1 to 100 do
        let b = Bytes.copy good in
        let i = Prng.int_below rng (Bytes.length b) in
        Bytes.set b i (Char.chr (Prng.int_below rng 256));
        check_total b
      done)
    goods;
  (* Pure noise at assorted sizes, plus every length around the fixed-size
     messages' boundaries. *)
  for _ = 1 to 500 do
    check_total (random_bytes rng (Prng.int_below rng 64))
  done;
  for n = 0 to 40 do
    check_total (Bytes.make n '\xFF')
  done

(* Structure-aware mutations of the server's windows, fed to a live
   client. A d = 64 session (32 keys added, 32 removed, on a 512-member
   shard) whose Req claims no difference opens on a 32-cell window, so the
   client asks for More; one genuine Sketch window, the first or the
   second, is rewritten in place: [lo] shifted by one, a cell zeroed,
   swapped or copied, a count that disagrees with the body, [lo + count]
   past the prefix's N cells or past [Rateless.max_index]. The client must
   end Succeeded with the true difference or Failed, never raise or hang,
   and the server serves at most N distinct cells. A window the client
   drops (a parse failure or a [lo] it does not expect) must not cost the
   session: the retransmitted request gets the genuine window back. *)
let test_server_window_mutations () =
  let module Wire = Ssr_server.Wire in
  let module Server = Ssr_server.Server in
  let module Shard = Ssr_server.Shard in
  let module Client = Ssr_server.Client in
  let server_seed = 0x5E55_1011L in
  let members = Array.init 512 (fun i -> 10_000 + i) in
  let added = Array.init 32 (fun j -> 1_000_000 + j) in
  let removed = Array.sub members 0 32 in
  let n_cells = Shard.prefix_cells ~rung_caps:Shard.default_rung_caps ~check_bits:32 in
  let cb = Rateless.cell_bytes in
  let l0 = L0.create ~seed:(Shard.l0_seed ~server_seed ~shard:0) () in
  L0.update_all l0 L0.S2 members;
  let underclaim =
    Wire.encode { Wire.shard = 0; session = 1; msg = Wire.Req { l0 = L0.to_bytes l0 } }
  in
  (* In an encoded Sketch the cells close the packet, after [lo] and the
     count (u32 each). *)
  let cells_at b cells = Bytes.length b - Bytes.length cells in
  let with_lo f b cells =
    let b = Bytes.copy b in
    Bytes.set_int32_le b (cells_at b cells - 8) (Int32.of_int (f (Bytes.length cells / cb)));
    b
  in
  let edit_cells f b cells =
    let b = Bytes.copy b in
    f b (cells_at b cells);
    b
  in
  let cell b at i = Bytes.sub b (at + (i * cb)) cb in
  let put b at i v = Bytes.blit v 0 b (at + (i * cb)) cb in
  (* (name, the session recovers, rewrite lo packet cells) *)
  let cases =
    [
      ("lo - 1", true, fun lo -> with_lo (fun _ -> (lo - 1) land 0xFFFF_FFFF));
      ("lo + 1", true, fun lo -> with_lo (fun _ -> lo + 1));
      ("lo + count past N", true, fun _ -> with_lo (fun count -> n_cells - count + 1));
      ( "lo + count past max_index",
        true,
        fun _ -> with_lo (fun count -> Rateless.max_index - count + 1) );
      ("count above the body", true, fun _ b _ -> Bytes.sub b 0 (Bytes.length b - cb));
      ("count below the body", true, fun _ b _ -> Bytes.cat b (Bytes.make cb '\001'));
      ("cell zeroed", false, fun _ -> edit_cells (fun b at -> Bytes.fill b at cb '\000'));
      ( "cells swapped",
        false,
        fun _ ->
          edit_cells (fun b at ->
              let c0 = cell b at 0 in
              put b at 0 (cell b at 1);
              put b at 1 c0) );
      ("cell duplicated", false, fun _ -> edit_cells (fun b at -> put b at 1 (cell b at 0)));
    ]
  in
  List.iter
    (fun (name, recovers, rewrite) ->
      List.iter
        (fun target ->
          let name = Printf.sprintf "%s (window %d)" name target in
          let clock = Clock.create () in
          let server =
            Server.create ~clock (Server.default_config ~seed:server_seed ~shards:1 ())
          in
          ignore (Server.apply_batch server (Array.map (fun x -> (0, Shard.Add x)) members));
          let base =
            Client.Base.create ~server_seed ~shard:0 ~rung_caps:Shard.default_rung_caps
              ~check_bits:32 ~members
          in
          let net =
            Network.create ~clock
              (Network.config_with ~latency_us:1_000 ~seed:(Prng.derive ~seed ~tag:0xE9) ())
          in
          let conn =
            Server.connect server ~reply:(fun b -> Network.send net Comm.B_to_a ~label:"srv" b)
          in
          let cl =
            Client.create ~clock
              ~send:(fun b -> Network.send net Comm.A_to_b ~label:"cli" b)
              ~base ~session:1 ~added ~removed ()
          in
          let windows = ref 0 and served = Hashtbl.create 8 in
          Network.on_deliver net (fun dir b ->
              match dir with
              | Comm.A_to_b ->
                let b =
                  match Wire.decode_opt b with
                  | Some { Wire.msg = Wire.Req _; _ } -> underclaim
                  | _ -> b
                in
                Server.receive server conn b
              | Comm.B_to_a -> (
                match Wire.decode_opt b with
                | Some { Wire.msg = Wire.Sketch { lo; body = cells; _ }; _ } ->
                  let fresh = not (Hashtbl.mem served lo) in
                  Hashtbl.replace served lo (Bytes.length cells / cb);
                  let b = if fresh && !windows = target then rewrite lo b cells else b in
                  if fresh then incr windows;
                  Client.on_receive cl b
                | _ -> Client.on_receive cl b));
          Client.start cl;
          Clock.run_until clock ~deadline_us:60_000_000 ~stop:(fun () ->
              Client.outcome cl <> Client.Pending);
          if !windows < 2 then Alcotest.failf "%s: the session took %d windows" name !windows;
          let cells_served = Hashtbl.fold (fun _ c acc -> acc + c) served 0 in
          if cells_served > n_cells then
            Alcotest.failf "%s: %d cells served past the %d-cell prefix" name cells_served n_cells;
          match Client.outcome cl with
          | Client.Succeeded _ ->
            Alcotest.(check (option (pair (list int) (list int))))
              (name ^ ": true difference")
              (Some (Array.to_list added, Array.to_list removed))
              (Client.recovered_diff cl)
          | Client.Failed _ -> if recovers then Alcotest.failf "%s: session failed" name
          | Client.Pending -> Alcotest.failf "%s: session still pending" name)
        [ 0; 1 ])
    cases

(* ---------- Domain-safety of the metrics registry and trace ring ---------- *)

(* Four domains hammer one counter, one gauge, one distribution and the
   trace ring concurrently. Atomic counters and the mutexes must lose no
   update: the diff over the window equals the ground-truth totals. *)
let test_metrics_domain_safety () =
  let n_domains = 4 and per_domain = 25_000 in
  let c = Metrics.counter "test.obs.par.counter" in
  let g = Metrics.gauge "test.obs.par.gauge" in
  let h = Metrics.dist "test.obs.par.dist" in
  Trace.set_capacity 64;
  let (), d =
    delta (fun () ->
        let workers =
          Array.init n_domains (fun w ->
              Domain.spawn (fun () ->
                  for i = 1 to per_domain do
                    Metrics.incr c;
                    if i land 1023 = 0 then begin
                      Metrics.set g ((w * per_domain) + i);
                      Metrics.observe h 2;
                      Trace.emit ~layer:"test" ~fields:[ ("w", Trace.I w) ] "par";
                      (* Concurrent registration of an existing name must
                         return the same cell, not clash or duplicate. *)
                      ignore (Metrics.counter "test.obs.par.counter")
                    end
                  done))
        in
        Array.iter Domain.join workers)
  in
  Alcotest.(check int) "no lost counter updates" (n_domains * per_domain)
    (Metrics.counter_value d "test.obs.par.counter");
  let expected_obs = n_domains * (per_domain / 1024) in
  (match Metrics.find d "test.obs.par.dist" with
  | Some (Metrics.Dist dd) ->
    Alcotest.(check int) "no lost dist observations" expected_obs dd.count;
    Alcotest.(check int) "dist sum consistent" (2 * expected_obs) dd.sum
  | _ -> Alcotest.fail "dist missing from diff");
  (* The trace ring accounts for every emit: buffered + overwritten. *)
  Alcotest.(check int) "no lost trace emits" expected_obs
    (List.length (Trace.events ()) + Trace.dropped ());
  Trace.set_capacity 4096

(* ---------- Metrics vs. network transcript (cross-layer accounting) ---------- *)

(* Over a clean network every wire write is delivered exactly once, so three
   independently-maintained byte counts must agree exactly:
   the ARQ's own stats, the arq.wire_bytes metric delta, and the sum of the
   network transcript's delivered payload sizes (== net.bytes.delivered).
   The comm.bits.* metric deltas must likewise equal the protocol's own
   transcript stats. Checked across seeds and all five stacks. *)
let run_stack_on_clean_network ~nseed stack =
  let clock = Clock.create () in
  let network = Network.create ~clock (Network.config_with ~seed:nseed ()) in
  let arq = Arq.create ~clock ~network ~seed:nseed () in
  let link = Resilient.over_network arq in
  let before = Metrics.snapshot () in
  let report =
    match stack with
    | `Set ->
      let rng = Prng.create ~seed:(Prng.derive ~seed:nseed ~tag:0x5E) in
      let alice = Iset.random_subset rng ~universe:(1 lsl 30) ~size:400 in
      let bob = Iset.union alice (Iset.random_subset rng ~universe:(1 lsl 31) ~size:8) in
      (match Resilient.reconcile_set ~link ~seed:nseed ~alice ~bob () with
      | Ok (got, report) ->
        Alcotest.(check bool) "set reconciled" true (Iset.equal got alice);
        report
      | Error _ -> Alcotest.fail "clean-network set reconciliation failed")
    | `Sos kind -> (
      let rng = Prng.create ~seed:(Prng.derive ~seed:nseed ~tag:0x50) in
      let u = 1 lsl 12 in
      let bob = Parent.random rng ~universe:u ~children:8 ~child_size:12 in
      let alice, _ = Parent.perturb rng ~universe:u ~edits:4 bob in
      match
        Resilient.reconcile_sos ~link ~kind ~seed:nseed ~u ~h:16 ~initial_d:8 ~alice ~bob ()
      with
      | Ok (got, report) ->
        Alcotest.(check bool) "sos reconciled" true (Parent.equal got alice);
        report
      | Error _ -> Alcotest.fail "clean-network sos reconciliation failed")
  in
  let d = Metrics.diff ~before ~after:(Metrics.snapshot ()) in
  let delivered_bytes =
    List.fold_left
      (fun acc (e : Network.delivery) ->
        if e.Network.delivered_us >= 0 then acc + Bytes.length e.Network.bytes else acc)
      0 (Network.transcript network)
  in
  let arq_stats = Arq.stats arq in
  Alcotest.(check int) "metric net.bytes.delivered == transcript bytes" delivered_bytes
    (Metrics.counter_value d "net.bytes.delivered");
  Alcotest.(check int) "metric arq.wire_bytes == arq stats" arq_stats.Arq.wire_bytes
    (Metrics.counter_value d "arq.wire_bytes");
  Alcotest.(check int) "clean network delivers every wire byte" arq_stats.Arq.wire_bytes
    delivered_bytes;
  Alcotest.(check int) "metric comm bits A->B == protocol stats"
    report.Resilient.stats.Comm.bits_a_to_b
    (Metrics.counter_value d "comm.bits.a_to_b");
  Alcotest.(check int) "metric comm bits B->A == protocol stats"
    report.Resilient.stats.Comm.bits_b_to_a
    (Metrics.counter_value d "comm.bits.b_to_a")

let test_metrics_match_transcript () =
  let stacks =
    `Set :: List.map (fun k -> `Sos k) Protocol.all
  in
  List.iter
    (fun nseed -> List.iter (fun stack -> run_stack_on_clean_network ~nseed stack) stacks)
    [ 0x11AL; 0x22BL; 0x33CL ]

(* ---------- Protocol retry counters ---------- *)

let test_retry_counter_ticks () =
  (* A clean known-d run ticks no retry counter; the unknown-d doubling
     starts at d = 1, so it retries, and ticks its kind's counter once per
     [retry] message in its transcript. *)
  let u = 1 lsl 12 in
  let rng = Prng.create ~seed:(Prng.derive ~seed ~tag:0xA1) in
  let bob = Parent.random rng ~universe:u ~children:8 ~child_size:12 in
  let alice, _ = Parent.perturb rng ~universe:u ~edits:3 bob in
  let d = max 3 (Parent.relaxed_matching_cost alice bob) in
  let _, dd =
    counter_delta "proto.cascade.retries" (fun () ->
        Protocol.reconcile_known Protocol.Cascade ~seed ~d:(2 * d) ~u ~h:16 ~alice ~bob ())
  in
  Alcotest.(check int) "ample d: no cascade retries" 0 dd;
  (* Enough differing children that the tables sized for d = 1 overflow. *)
  let bob = Parent.random rng ~universe:u ~children:32 ~child_size:12 in
  let alice, _ = Parent.perturb rng ~universe:u ~edits:24 bob in
  List.iter
    (fun kind ->
      let name = Protocol.name kind in
      match
        counter_delta ("proto." ^ name ^ ".retries") (fun () ->
            Protocol.reconcile_unknown kind ~seed ~u ~h:16 ~alice ~bob ())
      with
      | Ok o, ticks ->
        let retries =
          List.length
            (List.filter (fun m -> m.Comm.label = "retry") o.Protocol.stats.Comm.messages)
        in
        Alcotest.(check bool) (name ^ ": recovered") true (Parent.equal o.Protocol.recovered alice);
        Alcotest.(check bool) (name ^ ": doubling from d = 1 retried") true (retries >= 1);
        Alcotest.(check int) (name ^ ": one tick per retry message") retries ticks
      | Error _, _ -> Alcotest.failf "%s: unknown-d run failed" name)
    [ Protocol.Iblt_of_iblts; Protocol.Cascade ]

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter diff" `Quick test_metrics_counter_diff;
          Alcotest.test_case "dist diff" `Quick test_metrics_dist_diff;
          Alcotest.test_case "gauge + kind clash" `Quick test_metrics_gauge_kind_clash;
          Alcotest.test_case "snapshot deterministic" `Quick test_metrics_snapshot_deterministic;
          Alcotest.test_case "json escaping" `Quick test_metrics_json_escaping;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring wraparound" `Quick test_trace_ring_wraparound;
          Alcotest.test_case "time source" `Quick test_trace_time_source;
        ] );
      ( "totality",
        [
          Alcotest.test_case "get_int_le_opt" `Quick test_get_int_le_opt_total;
          Alcotest.test_case "decode_ints hostile keys" `Quick test_decode_ints_hostile_keys;
          Alcotest.test_case "peel of a displaced key terminates" `Quick test_peel_terminates;
          Alcotest.test_case "frame decode fuzz" `Quick test_frame_decode_fuzz;
          Alcotest.test_case "encoding decode_opt fuzz" `Quick test_encoding_decode_opt_fuzz;
          Alcotest.test_case "guarded message fuzz" `Quick test_xfer_guarded_fuzz;
          Alcotest.test_case "protocol message fuzz" `Quick test_protocol_message_fuzz;
          Alcotest.test_case "multiround damaged hash table" `Quick
            test_multiround_damaged_hash_table;
          Alcotest.test_case "l0 of_bytes_opt fuzz" `Quick test_l0_of_bytes_opt_fuzz;
          Alcotest.test_case "multiset pair keys fuzz" `Quick test_multiset_pair_keys_opt_fuzz;
          Alcotest.test_case "direct payload parsers fuzz" `Quick
            test_direct_payload_parsers_fuzz;
          Alcotest.test_case "rateless wire fuzz" `Quick test_rateless_wire_fuzz;
          Alcotest.test_case "rateless delivered hash" `Quick test_rateless_delivered_hash;
          Alcotest.test_case "rateless crafted window terminates" `Quick
            test_rateless_crafted_window_terminates;
          Alcotest.test_case "rateless crafted stream fails" `Quick
            test_rateless_crafted_stream_fails;
          Alcotest.test_case "rateless structural mutations" `Quick
            test_rateless_structural_mutations;
          Alcotest.test_case "server wire fuzz" `Quick test_server_wire_fuzz;
          Alcotest.test_case "server window mutations" `Quick test_server_window_mutations;
        ] );
      ( "domain-safety",
        [ Alcotest.test_case "metrics + trace under 4 domains" `Quick test_metrics_domain_safety ] );
      ( "accounting",
        [
          Alcotest.test_case "metrics match network transcript" `Quick
            test_metrics_match_transcript;
          Alcotest.test_case "retry counters" `Quick test_retry_counter_ticks;
        ] );
    ]
