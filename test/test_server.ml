(* Tests for the long-lived reconciliation server: end-to-end sessions,
   epoch pinning under concurrent mutation, deterministic backpressure,
   and serial-vs-parallel transcript identity. *)

module Prng = Ssr_util.Prng
module Clock = Ssr_transport.Clock
module Network = Ssr_transport.Network
module Comm = Ssr_setrecon.Comm
module Rateless = Ssr_sketch.Rateless
module L0 = Ssr_sketch.L0_estimator
module Metrics = Ssr_obs.Metrics
module Par = Ssr_util.Par
module Shard = Ssr_server.Shard
module Wire = Ssr_server.Wire
module Server = Ssr_server.Server
module Client = Ssr_server.Client
module Load_gen = Ssr_server.Load_gen

let seed = 0x5E1ECE11L

let with_domains n f =
  Fun.protect ~finally:(fun () -> Par.set_domains 1) (fun () ->
      Par.set_domains n;
      f ())

(* ---------- wire roundtrips ---------- *)

let test_wire_roundtrip () =
  let packets =
    [
      { Wire.shard = 3; session = 77; msg = Wire.Req { l0 = Bytes.of_string "estimate" } };
      { Wire.shard = 0; session = 1; msg = Wire.Reject { retry_after_us = 50_000 } };
      {
        Wire.shard = 65_535;
        session = 0xFFFFFFFF;
        msg =
          Wire.Sketch
            {
              version = 123_456;
              n = 42;
              xor_hash = 0x1234_5678_9ABC;
              lo = 96;
              body = Bytes.make (3 * Rateless.cell_bytes) 'x';
            };
      };
      { Wire.shard = 1; session = 2; msg = Wire.More { have = 0xFFFFFFFF } };
      { Wire.shard = 1; session = 2; msg = Wire.Done { ok = true } };
      { Wire.shard = 1; session = 2; msg = Wire.Fin { ok = false } };
      { Wire.shard = 9; session = 9; msg = Wire.Mutate { add = true; key = max_int / 4 } };
      { Wire.shard = 9; session = 9; msg = Wire.Mut_ack { version = 31337 } };
    ]
  in
  List.iter
    (fun p ->
      match Wire.decode_opt (Wire.encode p) with
      | Some p' -> Alcotest.(check bool) "roundtrip" true (p = p')
      | None -> Alcotest.fail "roundtrip decode failed")
    packets

(* ---------- shard prefix maintenance ---------- *)

let n_cells = Shard.prefix_cells ~rung_caps:Shard.default_rung_caps ~check_bits:32

let rebuilt_prefix members =
  Rateless.cells
    (Rateless.source_of_ints ~seed:(Shard.prefix_seed ~server_seed:seed ~shard:0) members)
    ~lo:0 ~hi:n_cells

let test_shard_prefix_matches_rebuild () =
  let sh = Shard.create ~server_seed:seed ~id:0 () in
  let rng = Prng.create ~seed:(Prng.derive ~seed ~tag:1) in
  (* Interleaved adds and removes, duplicates included. *)
  let churn () =
    for _ = 1 to 2000 do
      let x = Prng.int_below rng 512 in
      ignore (Shard.apply sh (if Prng.bool rng then Shard.Add x else Shard.Remove x))
    done
  in
  churn ();
  let members = Shard.members sh in
  (* The prefix must be byte-identical to a fresh build from the final set. *)
  let snap = Shard.snapshot sh in
  let pinned = Shard.snap_window snap ~lo:0 ~hi:n_cells in
  Alcotest.(check bool) "prefix incremental = rebuild" true
    (Bytes.equal pinned (rebuilt_prefix members));
  (* The xor hash composes incrementally too. *)
  let fn = Shard.hash_fn ~server_seed:seed ~shard:0 in
  let expect =
    Array.fold_left (fun acc x -> acc lxor Ssr_util.Hashing.hash_int fn x) 0 members
  in
  Alcotest.(check int) "xor hash" expect (Shard.xor_hash sh);
  Alcotest.(check bool) "estimators refreshed at least once" true (Shard.refreshes sh >= 1);
  (* A snapshot keeps its bytes while the shard moves on. *)
  churn ();
  Alcotest.(check bool) "snapshot unchanged by later mutations" true
    (Bytes.equal pinned (Shard.snap_window snap ~lo:0 ~hi:n_cells));
  Alcotest.(check bool) "prefix follows the later mutations" true
    (Bytes.equal
       (Shard.snap_window (Shard.snapshot sh) ~lo:0 ~hi:n_cells)
       (rebuilt_prefix (Shard.members sh)));
  Alcotest.check_raises "check_bits other than 32"
    (Invalid_argument "Shard: check_bits must be 32, the rateless cell's checksum width")
    (fun () -> ignore (Shard.create ~server_seed:seed ~id:0 ~check_bits:16 ()))

(* ---------- end-to-end single session over an ideal link ---------- *)

let mk_client_env ?(drop = 0.0) ?(latency_us = 1000) ~server ~clock ~base ~session ~added
    ~removed () =
  let ncfg =
    Network.config_with ~drop ~latency_us ~seed:(Prng.derive ~seed ~tag:(0xE00 + session)) ()
  in
  let net = Network.create ~clock ncfg in
  let conn = Server.connect server ~reply:(fun b -> Network.send net Comm.B_to_a ~label:"srv" b) in
  let cl =
    Client.create ~clock
      ~send:(fun b -> Network.send net Comm.A_to_b ~label:"cli" b)
      ~base ~session ~added ~removed ()
  in
  Network.on_deliver net (fun dir bytes ->
      match dir with
      | Comm.A_to_b -> Server.receive server conn bytes
      | Comm.B_to_a -> Client.on_receive cl bytes);
  cl

let test_single_session () =
  let clock = Clock.create () in
  let cfg = Server.default_config ~seed ~shards:1 () in
  let server = Server.create ~clock cfg in
  let members = Array.init 512 (fun i -> 1000 + i) in
  ignore (Server.apply_batch server (Array.map (fun x -> (0, Shard.Add x)) members));
  let base =
    Client.Base.create ~server_seed:seed ~shard:0 ~rung_caps:cfg.Server.rung_caps
      ~check_bits:cfg.Server.check_bits ~members
  in
  let added = [| 9_000_001; 9_000_002; 9_000_003 |] in
  let removed = [| 1000; 1001 |] in
  let cl = mk_client_env ~server ~clock ~base ~session:1 ~added ~removed () in
  Client.start cl;
  Clock.run_until clock ~deadline_us:10_000_000 ~stop:(fun () ->
      Client.outcome cl <> Client.Pending);
  (match Client.outcome cl with
  | Client.Succeeded { diff; latency_us; _ } ->
    Alcotest.(check int) "diff size" 5 diff;
    Alcotest.(check bool) "latency positive" true (latency_us > 0)
  | Client.Failed r -> Alcotest.fail ("session failed: " ^ r)
  | Client.Pending -> Alcotest.fail "session still pending");
  (match Client.recovered_diff cl with
  | Some (client_only, server_only) ->
    Alcotest.(check (list int)) "client-only" (Array.to_list added) client_only;
    Alcotest.(check (list int)) "server-only" (Array.to_list removed) server_only
  | None -> Alcotest.fail "no recovered diff");
  let st = Server.stats server in
  Alcotest.(check int) "opened" 1 st.Server.opened;
  Alcotest.(check int) "completed" 1 st.Server.completed;
  Alcotest.(check int) "active sessions drained" 0 (Server.active_sessions server)

(* ---------- lossy link: retransmissions still converge ---------- *)

let test_lossy_session () =
  let clock = Clock.create () in
  let cfg = Server.default_config ~seed ~shards:1 () in
  let server = Server.create ~clock cfg in
  let members = Array.init 256 (fun i -> 500 + i) in
  ignore (Server.apply_batch server (Array.map (fun x -> (0, Shard.Add x)) members));
  let base =
    Client.Base.create ~server_seed:seed ~shard:0 ~rung_caps:cfg.Server.rung_caps
      ~check_bits:cfg.Server.check_bits ~members
  in
  let cl =
    mk_client_env ~drop:0.2 ~latency_us:2000 ~server ~clock ~base ~session:7
      ~added:[| 7_000_001 |] ~removed:[| 500 |] ()
  in
  Client.start cl;
  Clock.run_until clock ~deadline_us:60_000_000 ~stop:(fun () ->
      Client.outcome cl <> Client.Pending);
  match Client.outcome cl with
  | Client.Succeeded { diff; _ } -> Alcotest.(check int) "diff size" 2 diff
  | Client.Failed r -> Alcotest.fail ("lossy session failed: " ^ r)
  | Client.Pending -> Alcotest.fail "lossy session still pending"

(* ---------- epoch pinning: windows come from the admitted snapshot ---------- *)

(* Drive the wire by hand: a client that underclaims its difference (its
   L0 says "no diff") gets a 32-cell window at 0, asks for [More], and the
   window it is then served must come from the same pinned snapshot even
   though the shard mutated in between. *)
let test_windows_from_pinned_epoch () =
  let clock = Clock.create () in
  let cfg = Server.default_config ~seed ~shards:1 () in
  let server = Server.create ~clock cfg in
  let members = Array.init 1000 (fun i -> 20_000 + i) in
  ignore (Server.apply_batch server (Array.map (fun x -> (0, Shard.Add x)) members));
  let replies = ref [] in
  let conn = Server.connect server ~reply:(fun b -> replies := b :: !replies) in
  let send msg =
    Server.receive server conn (Wire.encode { Wire.shard = 0; session = 1; msg });
    Clock.advance clock ~by_us:1;
    match !replies with
    | [ b ] ->
      replies := [];
      b
    | _ -> Alcotest.fail "expected exactly one reply"
  in
  let window b =
    match Wire.decode_opt b with
    | Some { Wire.msg = Wire.Sketch { version; n; xor_hash; lo; body = cells }; _ } ->
      (version, n, xor_hash, lo, cells)
    | _ -> Alcotest.fail "expected a Sketch window"
  in
  (* Honest-looking L0 claiming zero difference. *)
  let l0 = L0.create ~seed:(Shard.l0_seed ~server_seed:seed ~shard:0) () in
  L0.update_all l0 L0.S2 members;
  let v0, n0, x0, lo0, cells0 = window (send (Wire.Req { l0 = L0.to_bytes l0 })) in
  Alcotest.(check int) "first window at 0" 0 lo0;
  Alcotest.(check int) "32 cells" (32 * Rateless.cell_bytes) (Bytes.length cells0);
  (* Mutate the shard under the running session. *)
  let muts = Array.init 50 (fun i -> (0, Shard.Add (90_000 + i))) in
  Alcotest.(check int) "mutations effective" 50 (Server.apply_batch server muts);
  Alcotest.(check bool) "shard version moved" true (Shard.version (Server.shard server 0) > v0);
  Alcotest.(check bool) "shard hash moved" true (Shard.xor_hash (Server.shard server 0) <> x0);
  let more = send (Wire.More { have = 32 }) in
  let v1, n1, x1, lo1, cells1 = window more in
  Alcotest.(check int) "second window at 32" 32 lo1;
  Alcotest.(check int) "32 more cells" (32 * Rateless.cell_bytes) (Bytes.length cells1);
  Alcotest.(check int) "version pinned" v0 v1;
  Alcotest.(check int) "n pinned" n0 n1;
  Alcotest.(check int) "xor pinned" x0 x1;
  (* Decoding both windows against the pre-mutation set yields an empty
     difference: the snapshot saw none of the 50 adds. *)
  let dec =
    Rateless.decoder_of_ints ~seed:(Shard.prefix_seed ~server_seed:seed ~shard:0) members
  in
  ignore (Rateless.absorb dec ~lo:0 cells0);
  ignore (Rateless.absorb dec ~lo:32 cells1);
  Alcotest.(check bool) "empty difference (epoch pinned)" true
    (Rateless.decoded_ints dec = Some ([], []));
  Alcotest.(check bool) "duplicate More replays the cached reply" true
    (Bytes.equal more (send (Wire.More { have = 32 })));
  (* Each More doubles the delivered prefix up to N; one past it ends the
     session. *)
  let rec drain have =
    if have < n_cells then begin
      let _, _, _, lo, cells = window (send (Wire.More { have })) in
      Alcotest.(check int) "window starts at have" have lo;
      drain (lo + (Bytes.length cells / Rateless.cell_bytes))
    end
  in
  drain 64;
  (match Wire.decode_opt (send (Wire.More { have = n_cells })) with
  | Some { Wire.msg = Wire.Fin { ok = false }; _ } -> ()
  | _ -> Alcotest.fail "expected Fin{ok=false} past the prefix");
  let st = Server.stats server in
  Alcotest.(check int) "More windows served" 6 st.Server.escalations;
  Alcotest.(check int) "session failed" 1 st.Server.failed;
  Alcotest.(check int) "session dropped" 0 (Server.active_sessions server)

(* ---------- backpressure: deterministic rejection ---------- *)

let backpressure_replies ~domains () =
  with_domains domains (fun () ->
      let clock = Clock.create () in
      let cfg =
        {
          (Server.default_config ~seed ~shards:1 ()) with
          Server.max_sessions_per_shard = 2;
          admissions_per_round = 1;
          retry_after_us = 10_000;
        }
      in
      let server = Server.create ~clock cfg in
      ignore
        (Server.apply_batch server (Array.init 128 (fun i -> (0, Shard.Add (3_000 + i)))));
      let l0 = L0.create ~seed:(Shard.l0_seed ~server_seed:seed ~shard:0) () in
      let l0b = L0.to_bytes l0 in
      let inboxes = Array.make 4 [] in
      let conns =
        Array.init 4 (fun i ->
            Server.connect server ~reply:(fun b -> inboxes.(i) <- b :: inboxes.(i)))
      in
      (* Four simultaneous Reqs in one pump round. *)
      Array.iteri
        (fun i c ->
          Server.receive server c
            (Wire.encode { Wire.shard = 0; session = i + 1; msg = Wire.Req { l0 = l0b } }))
        conns;
      Clock.advance clock ~by_us:1;
      (* Second wave after the retry window: one more admission, then the
         table (2 sessions) is full. *)
      Clock.advance clock ~by_us:cfg.Server.retry_after_us;
      Server.receive server conns.(1)
        (Wire.encode { Wire.shard = 0; session = 2; msg = Wire.Req { l0 = l0b } });
      Clock.advance clock ~by_us:1;
      Clock.advance clock ~by_us:cfg.Server.retry_after_us;
      Server.receive server conns.(2)
        (Wire.encode { Wire.shard = 0; session = 3; msg = Wire.Req { l0 = l0b } });
      Clock.advance clock ~by_us:1;
      let st = Server.stats server in
      (Array.map (fun inbox -> List.rev_map Bytes.to_string inbox) inboxes, st))

let test_backpressure_determinism () =
  let replies1, st1 = backpressure_replies ~domains:1 () in
  let kind b =
    match Wire.decode_opt (Bytes.of_string b) with
    | Some { Wire.msg = Wire.Sketch _; _ } -> "sketch"
    | Some { Wire.msg = Wire.Reject { retry_after_us }; _ } ->
      Printf.sprintf "reject:%d" retry_after_us
    | _ -> "other"
  in
  Alcotest.(check (list string)) "conn0 admitted" [ "sketch" ] (List.map kind replies1.(0));
  Alcotest.(check (list string))
    "conn1 rejected then admitted"
    [ "reject:10000"; "sketch" ]
    (List.map kind replies1.(1));
  Alcotest.(check (list string))
    "conn2 rejected twice (table full)"
    [ "reject:10000"; "reject:10000" ]
    (List.map kind replies1.(2));
  Alcotest.(check (list string)) "conn3 rejected" [ "reject:10000" ] (List.map kind replies1.(3));
  Alcotest.(check int) "rejected count" 4 st1.Server.rejected;
  Alcotest.(check int) "opened count" 2 st1.Server.opened;
  (* Byte-identical under a 4-domain pool. *)
  let replies4, st4 = backpressure_replies ~domains:4 () in
  Alcotest.(check bool) "stats identical" true (st1 = st4);
  Array.iteri
    (fun i r1 ->
      Alcotest.(check (list string)) (Printf.sprintf "conn%d bytes identical" i) r1 replies4.(i))
    replies1

(* ---------- wire-path mutations ---------- *)

let test_mutate_over_wire () =
  let clock = Clock.create () in
  let cfg = Server.default_config ~seed ~shards:1 () in
  let server = Server.create ~clock cfg in
  let members = Array.init 64 (fun i -> 100 + i) in
  ignore (Server.apply_batch server (Array.map (fun x -> (0, Shard.Add x)) members));
  let base =
    Client.Base.create ~server_seed:seed ~shard:0 ~rung_caps:cfg.Server.rung_caps
      ~check_bits:cfg.Server.check_bits ~members
  in
  let cl = mk_client_env ~server ~clock ~base ~session:5 ~added:[||] ~removed:[||] () in
  Client.mutate cl ~add:true ~key:777_777;
  Clock.advance clock ~by_us:100_000;
  Alcotest.(check bool) "mut_ack received" true (Client.last_mut_ack cl <> None);
  Alcotest.(check bool) "key landed" true (Shard.mem (Server.shard server 0) 777_777);
  (* A reconcile now sees the mutation as server-only. *)
  Client.start cl;
  Clock.run_until clock ~deadline_us:20_000_000 ~stop:(fun () ->
      Client.outcome cl <> Client.Pending);
  match Client.recovered_diff cl with
  | Some ([], [ 777_777 ]) -> ()
  | Some _ | None -> Alcotest.fail "expected exactly the wire-mutated key as server-only"

(* ---------- load generator: serial = 4 domains, metrics exact ---------- *)

let lg_cfg =
  {
    (Load_gen.smoke_cfg ~seed) with
    Load_gen.shards = 4;
    shard_size = 256;
    clients = 120;
    client_delta = 8;
    hot_pool = 32;
    mutation_batches = 10;
    mutation_batch_size = 16;
    drop = 0.01;
  }

let test_load_gen_serial_matches_parallel () =
  let r1 = with_domains 1 (fun () -> Load_gen.run lg_cfg) in
  Alcotest.(check bool)
    ("most sessions complete: " ^ string_of_int r1.Load_gen.completed)
    true
    (r1.Load_gen.completed >= (9 * lg_cfg.Load_gen.clients) / 10);
  Alcotest.(check bool) "p99 >= p50 > 0" true
    (r1.Load_gen.p99_us >= r1.Load_gen.p50_us && r1.Load_gen.p50_us > 0);
  let before = Metrics.snapshot () in
  let r4 = with_domains 4 (fun () -> Load_gen.run lg_cfg) in
  let d = Metrics.diff ~before ~after:(Metrics.snapshot ()) in
  (* Zero lost updates: atomic counters agree with generator ground truth. *)
  Alcotest.(check int) "metrics: mutations exact" r4.Load_gen.mutations_applied
    (Metrics.counter_value d "server.mutations.applied");
  Alcotest.(check int) "metrics: completions exact" r4.Load_gen.completed
    (Metrics.counter_value d "server.sessions.completed");
  (* Byte-identical behaviour at any pool size. *)
  Alcotest.(check string) "transcript digest" r1.Load_gen.transcript_digest
    r4.Load_gen.transcript_digest;
  Alcotest.(check bool) "reports identical" true (r1 = r4)

let () =
  Alcotest.run "ssr_server"
    [
      ( "wire",
        [ Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip ] );
      ( "shard",
        [
          Alcotest.test_case "prefix = rebuild" `Quick test_shard_prefix_matches_rebuild;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "single session" `Quick test_single_session;
          Alcotest.test_case "lossy link" `Quick test_lossy_session;
          Alcotest.test_case "windows from the pinned epoch" `Quick
            test_windows_from_pinned_epoch;
          Alcotest.test_case "backpressure deterministic" `Quick test_backpressure_determinism;
          Alcotest.test_case "mutate over wire" `Quick test_mutate_over_wire;
        ] );
      ( "load-gen",
        [
          Alcotest.test_case "serial = 4 domains, metrics exact" `Quick
            test_load_gen_serial_matches_parallel;
        ] );
    ]
