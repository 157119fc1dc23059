(* The golden corpus: committed digests of wire transcripts that a change
   claiming to move no wire byte must leave alone.

   Every protocol stack runs on small seeded workloads, over the simulated
   network (a [Resilient] link of [Network] + [Arq], clean or faulty) or
   over a bare [Comm] with a recording transport, and each run's whole
   transcript is digested and compared with a table below. A table
   changes only in a change whose stated purpose is a wire change, which
   lists each moved row. Beside the tables: the per-request encoding memo
   puts the same bytes on the wire as no memo, and the ladder's
   fresh-salt retries repeat byte for byte. *)

module Prng = Ssr_util.Prng
module Iset = Ssr_util.Iset
module Parent = Ssr_core.Parent
module Protocol = Ssr_core.Protocol
module Clock = Ssr_transport.Clock
module Network = Ssr_transport.Network
module Arq = Ssr_transport.Arq
module Resilient = Ssr_transport.Resilient
module Comm = Ssr_setrecon.Comm

(* ---------- network transcripts ---------- *)

(* A network's whole wire transcript (delivery time + payload bytes of
   every event, in order) as one string. *)
let flatten_transcript network =
  let b = Buffer.create 4096 in
  List.iter
    (fun (e : Network.delivery) ->
      Buffer.add_string b (string_of_int e.Network.delivered_us);
      Buffer.add_char b ':';
      Buffer.add_bytes b e.Network.bytes;
      Buffer.add_char b '\n')
    (Network.transcript network);
  Buffer.contents b

(* A clean simulated network and a [Resilient] link over it. *)
let clean_network ~nseed =
  let clock = Clock.create () in
  let network = Network.create ~clock (Network.config_with ~seed:nseed ()) in
  (network, Resilient.over_network (Arq.create ~clock ~network ~seed:nseed ()))

let resilient_set ~nseed ~link ?initial_d strategy =
  let rng = Prng.create ~seed:(Prng.derive ~seed:nseed ~tag:0x5E) in
  let alice = Iset.random_subset rng ~universe:(1 lsl 30) ~size:400 in
  let bob = Iset.union alice (Iset.random_subset rng ~universe:(1 lsl 31) ~size:8) in
  match Resilient.reconcile_set ~link ~seed:nseed ~strategy ?initial_d ~alice ~bob () with
  | Ok (got, report) ->
    Alcotest.(check bool) "set reconciled" true (Iset.equal got alice);
    report
  | Error _ -> Alcotest.fail "set reconciliation failed"

(* One protocol stack over the clean simulated network; returns the full
   wire transcript (delivery time + payload bytes of every event, in
   order) as one string. *)
let transcript_of_stack ~nseed stack =
  let network, link = clean_network ~nseed in
  (match stack with
  | `Set strategy -> ignore (resilient_set ~nseed ~link strategy)
  | `Sos kind -> (
    let rng = Prng.create ~seed:(Prng.derive ~seed:nseed ~tag:0x50) in
    let u = 1 lsl 12 in
    let bob = Parent.random rng ~universe:u ~children:8 ~child_size:12 in
    let alice, _ = Parent.perturb rng ~universe:u ~edits:4 bob in
    match Resilient.reconcile_sos ~link ~kind ~seed:nseed ~u ~h:16 ~initial_d:8 ~alice ~bob () with
    | Ok (got, _) -> Alcotest.(check bool) "sos reconciled" true (Parent.equal got alice)
    | Error _ -> Alcotest.fail "sos reconciliation failed"));
  flatten_transcript network

let stack_name = function
  | `Set Resilient.Doubling -> "set"
  | `Set Resilient.Rateless -> "set-rateless"
  | `Sos kind -> Protocol.name kind

let transcript_seeds = [ 0x11AL; 0x22BL; 0x33CL ]

let transcript_stacks =
  `Set Resilient.Doubling :: `Set Resilient.Rateless :: List.map (fun k -> `Sos k) Protocol.all

(* Golden wire transcripts: the MD5 of every transcript above. A
   refactor or kernel change that claims to move no wire byte must leave
   this table alone; it changes only in a change whose stated purpose is a
   wire change, which lists each moved row. Rows are seed-major, stacks in
   [transcript_stacks] order. *)
let golden_digests =
  [
    ("0x11a", "set", "af1145bfc1b775e2ed2161a09b7ec68d");
    ("0x11a", "set-rateless", "02cbda665f5b4091f451b21f5361af74");
    ("0x11a", "naive", "57899c44c46a3fe7a465f5c116ac6e36");
    ("0x11a", "iblt-of-iblts", "dbc61e2b467c0f110430d4339c5f5ac6");
    ("0x11a", "cascade", "e7258e9543b3e9a6cf76eae6d518801a");
    ("0x11a", "multiround", "0a516b20e37a1b26ac1205557d16ec55");
    ("0x22b", "set", "b1a6f9e89b082456d3db5b611b1eac6e");
    ("0x22b", "set-rateless", "f7f761cf1ed2d508ee74104ecdbd74df");
    ("0x22b", "naive", "87e2a79c1048d1d20bb7a036dceae6b6");
    ("0x22b", "iblt-of-iblts", "20a90161c68fb18355a6f546f81161d3");
    ("0x22b", "cascade", "009d9a143c7286218517fead98ed924e");
    ("0x22b", "multiround", "9643325927348fc69002f1dce69f5d67");
    ("0x33c", "set", "b6cdda49b5b08b51ca32266da2050cc2");
    ("0x33c", "set-rateless", "21749497375840c35e6f28c54b6127bf");
    ("0x33c", "naive", "74df4691c4c015435be9eec66cb80e73");
    ("0x33c", "iblt-of-iblts", "a22b0df884772327829b2586852fb262");
    ("0x33c", "cascade", "71efd21c013fe6202350b971ba8acf0d");
    ("0x33c", "multiround", "9540d7ffe2f6dcfcd492889ab80288ec")
  ]

let test_golden_transcript_digests () =
  let got =
    List.concat_map
      (fun nseed ->
        List.map
          (fun stack ->
            ( Printf.sprintf "0x%Lx" nseed,
              stack_name stack,
              Digest.to_hex (Digest.string (transcript_of_stack ~nseed stack)) ))
          transcript_stacks)
      transcript_seeds
  in
  Alcotest.(check (list (triple string string string))) "transcript digests" golden_digests got

(* The one golden row whose run retries: a doubling ladder started at
   d = 1 fails its first attempt, and Bob's 1-byte retry request crosses
   the simulated network (framed, ARQ-sequenced and acknowledged). The
   failure was a clean decode failure, so the next attempt starts at once,
   without a backoff, and succeeds. *)
let test_golden_retry_transcript_digest () =
  let nseed = 0x11AL in
  let network, link = clean_network ~nseed in
  let report = resilient_set ~nseed ~link ~initial_d:1 Resilient.Doubling in
  let retries =
    List.filter
      (fun (m : Comm.message) -> m.Comm.label = "retry")
      report.Resilient.stats.Comm.messages
  in
  Alcotest.(check bool) "the ladder retried" true (retries <> []);
  Alcotest.(check string) "set, initial_d 1, seed 0x11a" "eac417bf49408c8d142aac84c21fb71f"
    (Digest.to_hex (Digest.string (flatten_transcript network)))

(* Golden transcripts of the ladder under faults: the same six stacks,
   each with a budget of two reconciliation attempts before direct
   transfer, over a seeded network that drops, corrupts and reorders
   copies and cuts both directions from 10 ms to 2.2 s of virtual time, so
   a message sent early in the window times out and fails its attempt.
   The set stacks start from d = 2 and the nested ones from d = 4, so
   some attempts also fail for size. A row digests the delivery
   transcript, the outcome, every attempt's (number, d, direct, ok) and
   the fault log: it moves with any change to the ladder's order,
   budgets, salts, backoffs or retry requests. *)
module Channel = Ssr_transport.Channel

let faulty_network ~nseed =
  let clock = Clock.create () in
  let network =
    Network.create ~clock
      (Network.config_with ~drop:0.1 ~corrupt:0.1 ~latency_us:2_000 ~jitter_us:1_000 ~reorder:0.1
         ~partitions:[ { Network.from_us = 10_000; until_us = 2_200_000; blocks = `Both } ]
         ~seed:nseed ())
  in
  (network, Resilient.over_network (Arq.create ~clock ~network ~seed:nseed ()))

let fault_string (e : Channel.event) =
  Printf.sprintf "%d %s %s %s" e.Channel.index
    (match e.Channel.direction with Comm.A_to_b -> "a->b" | Comm.B_to_a -> "b->a")
    e.Channel.label
    (match e.Channel.fault with
    | Channel.Dropped -> "drop"
    | Channel.Corrupted { copy; bit } -> Printf.sprintf "corrupt %d %d" copy bit
    | Channel.Truncated { copy; kept } -> Printf.sprintf "truncate %d %d" copy kept
    | Channel.Duplicated { copies } -> Printf.sprintf "dup %d" copies)

let faulty_digest ~nseed stack =
  let network, link = faulty_network ~nseed in
  let verdict correct = function
    | Ok (got, rep) -> ((if correct got then "ok\n" else "WRONG\n"), rep)
    | Error (`Transport_failure rep) -> ("transport-failure\n", rep)
    | Error (`Deadline_exceeded rep) -> ("deadline\n", rep)
  in
  let outcome, (rep : Resilient.report) =
    match stack with
    | `Set strategy ->
      let rng = Prng.create ~seed:(Prng.derive ~seed:nseed ~tag:0x5E) in
      let alice = Iset.random_subset rng ~universe:(1 lsl 30) ~size:400 in
      let bob = Iset.union alice (Iset.random_subset rng ~universe:(1 lsl 31) ~size:8) in
      verdict (Iset.equal alice)
        (Resilient.reconcile_set ~link ~seed:nseed ~strategy ~initial_d:2 ~max_attempts:2 ~alice
           ~bob ())
    | `Sos kind ->
      let rng = Prng.create ~seed:(Prng.derive ~seed:nseed ~tag:0x50) in
      let u = 1 lsl 12 in
      let bob = Parent.random rng ~universe:u ~children:8 ~child_size:12 in
      let alice, _ = Parent.perturb rng ~universe:u ~edits:4 bob in
      verdict (Parent.equal alice)
        (Resilient.reconcile_sos ~link ~kind ~seed:nseed ~u ~h:16 ~initial_d:4 ~max_attempts:2
           ~alice ~bob ())
  in
  Alcotest.(check string) (Printf.sprintf "%s seed=0x%Lx outcome" (stack_name stack) nseed)
    "ok\n" outcome;
  let b = Buffer.create 4096 in
  Buffer.add_string b outcome;
  List.iter
    (fun (a : Resilient.attempt) ->
      Printf.bprintf b "attempt %d %d %b %b\n" a.Resilient.number a.Resilient.d a.Resilient.direct
        a.Resilient.ok)
    rep.Resilient.attempts;
  List.iter (fun e -> Printf.bprintf b "fault %s\n" (fault_string e)) rep.Resilient.faults;
  Buffer.add_string b (flatten_transcript network);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Seed-major, stacks in [transcript_stacks] order. The two rows whose
   ladder falls back to direct transfer (0x11a set, 0x33c iblt-of-iblts)
   are the rows a change to what follows the first rung moves. *)
let golden_faulty_digests =
  [
    ("0x11a", "set", "1a6836887e2cbce97c0979347ae02022");
    ("0x11a", "set-rateless", "66cc9af0370d8007a54292443677ad65");
    ("0x11a", "naive", "70e45300f056420103cc321a8861e420");
    ("0x11a", "iblt-of-iblts", "10209948753639ef51364dac98d7283d");
    ("0x11a", "cascade", "b9fbc18e41f51dd41f08c399bbff8526");
    ("0x11a", "multiround", "e67cdecaefbdaef8716db2f58993f54f");
    ("0x22b", "set", "f2e0af27d3dce8828a67e233d61b58ec");
    ("0x22b", "set-rateless", "edb284650b028bfa61e7c409208d36fb");
    ("0x22b", "naive", "40d04d635e9d57694b52067f88b6d297");
    ("0x22b", "iblt-of-iblts", "9a7434e5a1851a626dd8224ff13a8186");
    ("0x22b", "cascade", "86237967d17bd3ed9a8dd64b8ca3411e");
    ("0x22b", "multiround", "ec22b8891f39e7b478928928af8680a7");
    ("0x33c", "set", "55e11e4b7a71d4c58266c850740df18e");
    ("0x33c", "set-rateless", "f8710733c9b14d8b731e75dde06033d5");
    ("0x33c", "naive", "bdff3da924783f137872b1d000029f30");
    ("0x33c", "iblt-of-iblts", "6e430e25531a2664c118ed6963f94db8");
    ("0x33c", "cascade", "4b2cac7328e4d716f211bc08a61a70fc");
    ("0x33c", "multiround", "6b36ace48c76c2b2db3d4c5c7a8c2b9d")
  ]

let test_golden_faulty_transcript_digests () =
  let got =
    List.concat_map
      (fun nseed ->
        List.map
          (fun stack ->
            ( Printf.sprintf "0x%Lx" nseed,
              stack_name stack,
              faulty_digest ~nseed stack ))
          transcript_stacks)
      transcript_seeds
  in
  Alcotest.(check (list (triple string string string)))
    "faulty transcript digests" golden_faulty_digests got

(* Golden transcripts of the plain stacks, run over a bare [Comm]: a
   recording transport with 0 overhead bits sees every message, and the
   digest covers its direction, label, bits and payload bytes. The
   workloads are small and seeded by the transcript seed; each stack must
   also reach its correct result. *)
module Set_recon = Ssr_setrecon.Set_recon
module Two_way = Ssr_setrecon.Two_way
module Multi_party = Ssr_setrecon.Multi_party
module Multiset = Ssr_setrecon.Multiset
module Multiset_recon = Ssr_setrecon.Multiset_recon
module Cpi = Ssr_setrecon.Cpi_recon
module Poly_protocol = Ssr_graphrecon.Poly_protocol
module Sos3 = Ssr_core.Sos3

let recorded_transcript ~name run =
  let comm = Comm.create () in
  let b = Buffer.create 4096 in
  Comm.set_transport comm
    {
      Comm.transmit =
        (fun direction ~label payload ->
          Printf.bprintf b "%s %s %d:"
            (match direction with Comm.A_to_b -> "a->b" | Comm.B_to_a -> "b->a")
            label (8 * Bytes.length payload);
          Buffer.add_bytes b payload;
          Buffer.add_char b '\n';
          Some payload);
      overhead_bits = 0;
    };
  Alcotest.(check bool) (name ^ " reached the correct result") true (run comm);
  Buffer.contents b

let sets ~nseed ~tag ~diff =
  let rng = Prng.create ~seed:(Prng.derive ~seed:nseed ~tag) in
  let alice = Iset.random_subset rng ~universe:(1 lsl 30) ~size:120 in
  let extra = Iset.random_subset rng ~universe:(1 lsl 30) ~size:diff in
  let drop = Iset.of_list (List.filteri (fun i _ -> i < diff / 2) (Iset.to_list alice)) in
  (alice, Iset.diff (Iset.union alice extra) drop)

let multisets ~nseed =
  let rng = Prng.create ~seed:(Prng.derive ~seed:nseed ~tag:0x3B) in
  let alice = Multiset.of_pairs (List.init 60 (fun i -> (i, 1 + Prng.int_below rng 3))) in
  let bob = ref alice in
  for _ = 1 to 4 do
    bob := Multiset.add (Prng.int_below rng 80) !bob
  done;
  (alice, !bob)

let comm_stacks =
  let set_ok (o : Set_recon.outcome) alice = Iset.equal o.Set_recon.recovered alice in
  [
    ( "set-known",
      fun nseed comm ->
        let alice, bob = sets ~nseed ~tag:0x51 ~diff:8 in
        match Set_recon.run_known_d ~comm ~seed:nseed ~d:16 ~alice ~bob with
        | Ok o -> set_ok o alice
        | Error `Decode_failure -> false );
    ( "set-unknown",
      fun nseed comm ->
        let alice, bob = sets ~nseed ~tag:0x52 ~diff:8 in
        match Set_recon.run_unknown_d ~comm ~seed:nseed ~alice ~bob () with
        | Ok o -> set_ok o alice
        | Error `Decode_failure -> false );
    ( "two-way",
      fun nseed comm ->
        let alice, bob = sets ~nseed ~tag:0x54 ~diff:8 in
        match Two_way.run_unknown_d ~comm ~seed:nseed ~alice ~bob () with
        | Ok o -> Iset.equal o.Two_way.union (Iset.union alice bob)
        | Error `Decode_failure -> false );
    ( "multi-party",
      fun nseed comm ->
        let a, b = sets ~nseed ~tag:0x55 ~diff:4 in
        let _, c = sets ~nseed ~tag:0x56 ~diff:4 in
        let parties = [| a; b; c |] in
        let d = Multi_party.pairwise_bound parties in
        match Multi_party.run_broadcast ~comm ~seed:nseed ~d ~parties with
        | Ok o -> Iset.equal o.Multi_party.union (Iset.union a (Iset.union b c))
        | Error (`Decode_failure _) -> false );
    ( "multiset",
      fun nseed comm ->
        let alice, bob = multisets ~nseed in
        match Multiset_recon.run_known_d ~comm ~seed:nseed ~d:8 ~alice ~bob with
        | Ok o -> Multiset.equal o.Multiset_recon.recovered alice
        | Error `Decode_failure -> false );
    ( "cpi-set",
      fun nseed comm ->
        let alice, bob = sets ~nseed ~tag:0x57 ~diff:4 in
        match Cpi.run_known_d ~comm ~seed:nseed ~d:6 ~alice ~bob with
        | Ok o -> Iset.equal o.Cpi.recovered alice
        | Error `Bound_too_small -> false );
    ( "cpi-multiset",
      fun nseed comm ->
        let alice, bob = multisets ~nseed in
        let alice = Multiset.to_pairs alice in
        match Cpi.run_multiset_known_d ~comm ~seed:nseed ~d:6 ~alice ~bob:(Multiset.to_pairs bob) with
        | Ok (got, _) -> got = alice
        | Error `Bound_too_small -> false );
    ( "poly",
      fun nseed comm ->
        let module Graph = Ssr_graphs.Graph in
        let module Iso = Ssr_graphs.Iso in
        let rng = Prng.create ~seed:(Prng.derive ~seed:nseed ~tag:0x58) in
        let bob = Ssr_graphs.Gnp.sample rng ~n:5 ~p:0.4 in
        let alice = Graph.relabel (Graph.flip_random_edges rng bob 1) [| 4; 3; 2; 1; 0 |] in
        match Poly_protocol.run_reconcile ~comm ~seed:nseed ~d:1 ~alice ~bob with
        | Some g -> Iso.is_isomorphic g alice
        | None -> false );
    ( "sos3",
      fun nseed comm ->
        let rng = Prng.create ~seed:(Prng.derive ~seed:nseed ~tag:0x59) in
        let mk () = Parent.random rng ~universe:5_000 ~children:5 ~child_size:6 in
        let bob = Sos3.of_parents (List.init 4 (fun _ -> mk ())) in
        let alice = Sos3.perturb rng ~universe:5_000 ~edits:2 bob in
        let d3, d2, d = Sos3.diff_bounds alice bob in
        match
          Sos3.run_known ~comm ~seed:nseed ~d:(max 1 d) ~d2:(max 1 d2) ~d3:(max 1 d3)
            ~alice ~bob
        with
        | Ok o -> Sos3.equal o.Sos3.recovered alice
        | Error `Decode_failure -> false );
  ]

(* Seed-major, stacks in [comm_stacks] order. A change that claims to
   move no wire byte must leave this table alone. *)
let golden_comm_digests =
  [
    ("0x11a", "set-known", "bcf4f776bf0dc9a96ddd907c81ee9c93");
    ("0x11a", "set-unknown", "31f65086e201655f5ced28a89a2ec613");
    ("0x11a", "two-way", "bce6f0c633b227e6724496a8ed581ba1");
    ("0x11a", "multi-party", "1122d1c0d7b08c8321c20ad988049a9c");
    ("0x11a", "multiset", "6e41becfbdc05b759d59bc4bf67023ad");
    ("0x11a", "cpi-set", "0be0d44cdec24fd6af9a64ce2f73a609");
    ("0x11a", "cpi-multiset", "b17a9b3ddd095029552fdeab6c8fcb83");
    ("0x11a", "poly", "afc01769cca02138aa95ab4f6971154a");
    ("0x11a", "sos3", "2737de8c7e01555d9c3c67a5e745cc85");
    ("0x22b", "set-known", "8da7163c94e6cde684a51a0b712ee31b");
    ("0x22b", "set-unknown", "281ceb73dc02fbeced4c5c81ac94fb8b");
    ("0x22b", "two-way", "9e50989562ffc986bcd1adf964c4f407");
    ("0x22b", "multi-party", "d742c6483de8977118ac9a558bb6afee");
    ("0x22b", "multiset", "cd55144004ad3e13678ae8801d01e1d8");
    ("0x22b", "cpi-set", "d42f86dcdac48b8c4948d6f40a0cf634");
    ("0x22b", "cpi-multiset", "2a2a889af4cdbf0cb1951b79830dd362");
    ("0x22b", "poly", "6e40928641e3fb1ed1b35272a9ac540a");
    ("0x22b", "sos3", "2c2d3215f6318e0abafcde9a7da46591");
    ("0x33c", "set-known", "299329a97a230c111e01d3f0ac8c4310");
    ("0x33c", "set-unknown", "1542a20109decb3fc7efab1d1b1fa354");
    ("0x33c", "two-way", "f9a30a6f9ded65523fa270416ee786cf");
    ("0x33c", "multi-party", "75739e865468a570635ee40f42c583be");
    ("0x33c", "multiset", "56e5e5a865341e3ef957d8dcc6b28570");
    ("0x33c", "cpi-set", "69e1a7dc8f90c62ccf4870253854aa12");
    ("0x33c", "cpi-multiset", "305647ae574a7920b52724803172a08e");
    ("0x33c", "poly", "579f3868ad0b388e46d1ce125f04d3ae");
    ("0x33c", "sos3", "9e1e82a581dea4a67721b441c033c064")
  ]

let comm_digests stacks =
  List.concat_map
    (fun nseed ->
      List.map
        (fun (name, run) ->
          ( Printf.sprintf "0x%Lx" nseed,
            name,
            Digest.to_hex (Digest.string (recorded_transcript ~name (run nseed))) ))
        stacks)
    transcript_seeds

let test_golden_comm_transcript_digests () =
  Alcotest.(check (list (triple string string string)))
    "comm transcript digests" golden_comm_digests (comm_digests comm_stacks)

(* The unknown-d front ends of the four set-of-sets kinds (naive and
   multiround open with Bob's estimator; iblt-of-iblts and cascade double
   from d = 1 and must retry, so Bob's retry requests are in the
   transcript) and sets of multisets on cascade with known and unknown d,
   over the same bare [Comm]. *)
module Sos_multiset = Ssr_core.Sos_multiset

let sos_parents ~nseed =
  let rng = Prng.create ~seed:(Prng.derive ~seed:nseed ~tag:0x5A) in
  let u = 1 lsl 12 in
  let bob = Parent.random rng ~universe:u ~children:16 ~child_size:10 in
  let alice, _ = Parent.perturb rng ~universe:u ~edits:12 bob in
  (u, alice, bob)

let sos_multisets ~nseed =
  let rng = Prng.create ~seed:(Prng.derive ~seed:nseed ~tag:0x5B) in
  let bob =
    Array.init 6 (fun _ -> Multiset.of_list (List.init 8 (fun _ -> Prng.int_below rng 40)))
  in
  let alice = Array.copy bob in
  for _ = 1 to 3 do
    let i = Prng.int_below rng 6 in
    alice.(i) <- Multiset.add (Prng.int_below rng 40) alice.(i)
  done;
  (Sos_multiset.of_children (Array.to_list alice), Sos_multiset.of_children (Array.to_list bob))

let core_comm_stacks =
  List.map
    (fun kind ->
      ( "unknown-" ^ Protocol.name kind,
        fun nseed comm ->
          let u, alice, bob = sos_parents ~nseed in
          let h = max (Parent.max_child_size alice) (Parent.max_child_size bob) in
          match Protocol.run_unknown kind ~comm ~seed:nseed ~u ~h ~alice ~bob with
          | Ok o ->
            let retried =
              List.exists (fun (m : Comm.message) -> m.Comm.label = "retry") (Comm.stats comm).Comm.messages
            in
            Parent.equal o.Protocol.recovered alice
            && retried = (kind = Protocol.Iblt_of_iblts || kind = Protocol.Cascade)
          | Error `Decode_failure -> false ))
    Protocol.all
  @ [
      ( "sos-multiset-known",
        fun nseed comm ->
          let alice, bob = sos_multisets ~nseed in
          let d = Sos_multiset.diff_bound alice bob in
          match Sos_multiset.run Protocol.Cascade ~comm ~seed:nseed ~d ~u:40 ~alice ~bob with
          | Ok got -> Sos_multiset.equal got alice
          | Error `Decode_failure -> false );
      ( "sos-multiset-unknown",
        fun nseed comm ->
          let alice, bob = sos_multisets ~nseed in
          match Sos_multiset.run_unknown Protocol.Cascade ~comm ~seed:nseed ~u:40 ~alice ~bob with
          | Ok got -> Sos_multiset.equal got alice
          | Error `Decode_failure -> false );
    ]

(* Computed with the code these stacks had before their parties were
   split apart; seed-major, stacks in [core_comm_stacks] order. *)
let golden_core_comm_digests =
  [
    ("0x11a", "unknown-naive", "5b2a2d0ac671639b822fcba016a1deee");
    ("0x11a", "unknown-iblt-of-iblts", "6492e28380914ae5bbfc5f6803459e22");
    ("0x11a", "unknown-cascade", "7adb3c5d5ae4fb201b1522371eb62724");
    ("0x11a", "unknown-multiround", "4a142b66c2cf4ebf6e18a8449dc2d868");
    ("0x11a", "sos-multiset-known", "967f61d2a1d3c2b6c0584df7055c4795");
    ("0x11a", "sos-multiset-unknown", "caeb69ec5563d82c8d9e111d44d61947");
    ("0x22b", "unknown-naive", "0f60d5ce00efebbcdf684aa3c37034c0");
    ("0x22b", "unknown-iblt-of-iblts", "a92b0410973cadd043b469ad93cd87e1");
    ("0x22b", "unknown-cascade", "120adfbbece69e44469477c04da10941");
    ("0x22b", "unknown-multiround", "6821a5be099b61752edf154dae3748a6");
    ("0x22b", "sos-multiset-known", "a9ce36a4a98eb31aa86d7ac28bb6a08f");
    ("0x22b", "sos-multiset-unknown", "59a794d37e5448c72957ba2f72bf4173");
    ("0x33c", "unknown-naive", "0cf5a118203e8c084c05311277e9f1cb");
    ("0x33c", "unknown-iblt-of-iblts", "802dcc1875fd161de56afddd53026810");
    ("0x33c", "unknown-cascade", "9d9b38149eaff90621f0490138d0c027");
    ("0x33c", "unknown-multiround", "5f1eceeab6bb021110eb84119698fdfb");
    ("0x33c", "sos-multiset-known", "28ad452c2a212eed1672d3389a5bc985");
    ("0x33c", "sos-multiset-unknown", "4033b2228a81a9b1c4329176c5ce69c0")
  ]

let test_golden_core_comm_transcript_digests () =
  let got = comm_digests core_comm_stacks in
  Alcotest.(check (list (triple string string string)))
    "core comm transcript digests" golden_core_comm_digests got

(* A per-request encoding memo must be byte-transparent: three attempts
   of one nested stack sharing a memo, as Resilient runs them (the bound
   doubles per attempt, each attempt under its own salt; the encoding salt
   is pinned, so the parties and the attempts share child encodings
   wherever their encoder configuration agrees), put the same bytes on the
   wire, bit for bit, as the same attempts without one. *)
module Enc_cache = Ssr_core.Enc_cache

let transcript_of_rungs ~nseed ~memo kind =
  let clock = Clock.create () in
  let network = Network.create ~clock (Network.config_with ~seed:nseed ()) in
  let arq = Arq.create ~clock ~network ~seed:nseed () in
  let rng = Prng.create ~seed:(Prng.derive ~seed:nseed ~tag:0x50) in
  let u = 1 lsl 12 in
  let bob = Parent.random rng ~universe:u ~children:8 ~child_size:12 in
  let alice, _ = Parent.perturb rng ~universe:u ~edits:4 bob in
  let memo = if memo then Some (Enc_cache.create ()) else None in
  List.iteri
    (fun attempt d ->
      let comm = Comm.create () in
      Comm.set_transport comm (Arq.transport arq);
      ignore
        (Protocol.run_known ?memo kind ~comm
           ~seed:(Ssr_util.Hashing.attempt_seed ~seed:nseed ~attempt)
           ~enc_seed:(Some nseed) ~d ~u ~h:16 ~alice ~bob))
    [ 8; 16; 32 ];
  flatten_transcript network

let test_memo_transcripts_byte_identical () =
  let hits0 = (Enc_cache.stats ()).Enc_cache.hits in
  List.iter
    (fun nseed ->
      List.iter
        (fun kind ->
          let plain = transcript_of_rungs ~nseed ~memo:false kind in
          let got = transcript_of_rungs ~nseed ~memo:true kind in
          Alcotest.(check bool)
            (Printf.sprintf "memo = no memo, %s seed=0x%Lx (%d bytes)" (Protocol.name kind) nseed
               (String.length plain))
            true (String.equal plain got))
        Protocol.all)
    [ 0x9A1L; 0x9B2L; 0x9C3L ];
  Alcotest.(check bool) "the memo was hit" true ((Enc_cache.stats ()).Enc_cache.hits > hits0)

(* The ladder's retries under fresh salts must be exactly as deterministic
   as the rest of it: an adversarial family ground against the attempt-0
   schedule stalls the set stack's first attempt, a later attempt under a
   fresh salt and a doubled bound recovers it without direct transfer, and
   a second run must put the same bytes on the wire. *)
let transcript_of_adversarial_set ~nseed =
  let module Iblt = Ssr_sketch.Iblt in
  let module Hashing = Ssr_util.Hashing in
  let clock = Clock.create () in
  let network = Network.create ~clock (Network.config_with ~seed:nseed ()) in
  let arq = Arq.create ~clock ~network ~seed:nseed () in
  let link = Resilient.over_network arq in
  let d = 16 in
  let prm : Iblt.params =
    {
      cells = Iblt.recommended_cells ~k:4 ~diff_bound:d;
      k = 4;
      key_len = 8;
      seed = Hashing.attempt_seed ~seed:nseed ~attempt:0;
    }
  in
  let alice, bob = Ssr_apps.Adversarial.workload ~prm ~bob_size:120 ~count:d () in
  (match Resilient.reconcile_set ~link ~seed:nseed ~initial_d:d ~alice ~bob () with
  | Ok (got, rep) ->
    Alcotest.(check bool) "adversarial set reconciled" true (Iset.equal got alice);
    Alcotest.(check bool) "not degraded" false rep.Resilient.degraded;
    Alcotest.(check bool) "attempt 0 stalled" false (List.hd rep.Resilient.attempts).Resilient.ok
  | Error _ -> Alcotest.fail "adversarial set reconciliation failed");
  flatten_transcript network

let test_adversarial_fresh_salt_deterministic () =
  List.iter
    (fun nseed ->
      let first = transcript_of_adversarial_set ~nseed in
      let second = transcript_of_adversarial_set ~nseed in
      Alcotest.(check bool)
        (Printf.sprintf "fresh-salt ladder transcript seed=0x%Lx (%d bytes)" nseed
           (String.length first))
        true (String.equal first second))
    [ 0x44DL; 0x55EL ]

let () =
  Alcotest.run "ssr_par"
    [
      ( "determinism",
        [
          Alcotest.test_case "golden transcript digests (3 seeds x 6 stacks)" `Quick
            test_golden_transcript_digests;
          Alcotest.test_case "golden comm transcript digests (3 seeds x 9 stacks)" `Quick
            test_golden_comm_transcript_digests;
          Alcotest.test_case "golden core comm transcript digests (3 seeds x 6 stacks)" `Quick
            test_golden_core_comm_transcript_digests;
          Alcotest.test_case "golden retry transcript digest" `Quick
            test_golden_retry_transcript_digest;
          Alcotest.test_case "golden faulty transcript digests (3 seeds x 6 stacks)" `Quick
            test_golden_faulty_transcript_digests;
          Alcotest.test_case "memo = no memo transcripts" `Quick
            test_memo_transcripts_byte_identical;
          Alcotest.test_case "fresh salts deterministic (2 seeds)" `Quick
            test_adversarial_fresh_salt_deterministic;
        ] );
    ]
