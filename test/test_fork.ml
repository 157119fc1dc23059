(* Conformance of the party split: every lib/core stack runs with Alice in
   a forked child process, joined to Bob by two pipes, and Bob must see
   the same transcript (direction, label, bits and payload of every
   message) and reach the same result as in the in-process run. The child
   is handed only Alice's collection and the public parameters, and its
   memory is its own from the fork on, so anything that reached Bob other
   than as bytes (a module-level ref, a table, a cache filled by Alice)
   shows here as a different transcript or result.

   OCaml 5 refuses [Unix.fork] once other domains have run, so the pool
   stays serial in this suite. *)

module Prng = Ssr_util.Prng
module Par = Ssr_util.Par
module Metrics = Ssr_obs.Metrics
module Comm = Ssr_setrecon.Comm
module Parent = Ssr_core.Parent
module Protocol = Ssr_core.Protocol
module Naive = Ssr_core.Naive
module Multiround = Ssr_core.Multiround
module Sos3 = Ssr_core.Sos3

(* ---- Frames on a pipe: label length, label, payload length, payload. ---- *)

let send oc ~label payload =
  output_binary_int oc (String.length label);
  output_string oc label;
  output_binary_int oc (Bytes.length payload);
  output_bytes oc payload;
  flush oc

(* [None] at the end of the stream: the other party has finished. *)
let receive ic =
  match input_binary_int ic with
  | exception End_of_file -> None
  | n ->
    let label = really_input_string ic n in
    let payload = Bytes.create (input_binary_int ic) in
    really_input ic payload 0 (Bytes.length payload);
    Some (label, payload)

(* A recorder whose transport writes down every message Bob's side sees
   and, in the forked run, carries Bob's own messages (his steps' and his
   retry requests) to Alice's pipe. *)
let recording ?to_alice () =
  let comm = Comm.create () and b = Buffer.create 4096 in
  Comm.set_transport comm
    {
      Comm.transmit =
        (fun direction ~label payload ->
          Printf.bprintf b "%s %s %d:"
            (match direction with Comm.A_to_b -> "a->b" | Comm.B_to_a -> "b->a")
            label (8 * Bytes.length payload);
          Buffer.add_bytes b payload;
          Buffer.add_char b '\n';
          (match (direction, to_alice) with Comm.B_to_a, Some oc -> send oc ~label payload | _ -> ());
          Some payload);
      overhead_bits = 0;
    };
  (comm, b)

(* Alice in the child: her messages go to the pipe, and she is delivered
   what Bob sends until he hangs up. *)
let rec alice_over ic oc = function
  | Comm.Done _ -> ()
  | Comm.Send (label, payload, next) ->
    send oc ~label payload;
    alice_over ic oc next
  | Comm.Recv k -> Option.iter (fun (_, payload) -> alice_over ic oc (k (Ok payload))) (receive ic)

(* The doubling schedule on Alice's side: the attempt at [d], then Bob's
   retry request (the next attempt, at 2d) or the end. *)
let rec alice_doubling ic oc ~d attempt =
  alice_over ic oc (attempt d);
  if receive ic <> None then alice_doubling ic oc ~d:(2 * d) attempt

(* Bob in the parent: Alice's messages enter his transcript through
   [Comm.xfer] as they arrive, and her hanging up is a loss. *)
let rec bob_over comm ic = function
  | Comm.Done r -> r
  | Comm.Send (label, payload, next) ->
    ignore (Comm.xfer comm Comm.B_to_a ~label payload);
    bob_over comm ic next
  | Comm.Recv k ->
    let got =
      match receive ic with
      | Some (label, payload) -> Comm.xfer comm Comm.A_to_b ~label payload
      | None -> Error `Lost
    in
    bob_over comm ic (k got)

let bob_doubling comm ic ~max_d attempt =
  Comm.retry_doubling comm ~retries:(Metrics.counter "test.fork.retries") ~d:1
    ~stop:(fun ~attempt:_ ~d -> d > max_d)
    (fun ~attempt:_ ~d -> bob_over comm ic (attempt d))

(* Alice in a forked child, Bob here: his transcript, his result and how
   the child ended. *)
let forked ~alice ~bob =
  let from_alice, alice_out = Unix.pipe () and alice_in, to_alice = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close from_alice;
    Unix.close to_alice;
    let code =
      try
        let oc = Unix.out_channel_of_descr alice_out in
        alice (Unix.in_channel_of_descr alice_in) oc;
        close_out oc;
        0
      with _ -> 2
    in
    Unix._exit code
  | pid ->
    Unix.close alice_out;
    Unix.close alice_in;
    let ic = Unix.in_channel_of_descr from_alice and oc = Unix.out_channel_of_descr to_alice in
    let comm, transcript = recording ~to_alice:oc () in
    let result = bob comm ic in
    close_out oc;
    let _, status = Unix.waitpid [] pid in
    close_in ic;
    (Buffer.contents transcript, result, status)

(* ---- The stacks, each with its in-process driver and its two sides. ---- *)

type case = {
  in_process : Comm.t -> string option;
  alice : in_channel -> out_channel -> unit;
  bob : Comm.t -> in_channel -> string option;
}

let show_parent p = Format.asprintf "%a" Parent.pp p
let show_sos3 t = String.concat ";" (List.map show_parent (Sos3.parents t))

let u = 1 lsl 12

(* Twelve edits over sixteen children, as in test_par's unknown-d corpus
   rows: the doubling from d = 1 retries. *)
let workload nseed =
  let rng = Prng.create ~seed:(Prng.derive ~seed:nseed ~tag:0x5A) in
  let bob = Parent.random rng ~universe:u ~children:16 ~child_size:10 in
  let alice, _ = Parent.perturb rng ~universe:u ~edits:12 bob in
  let h = max (Parent.max_child_size alice) (Parent.max_child_size bob) in
  (alice, bob, h, Parent.stream_of_t alice, Parent.stream_of_t bob)

let recovered bob = function
  | Ok (delta : Parent.delta) -> Some (show_parent (Parent.apply_delta bob delta))
  | Error `Decode_failure -> None

let known kind nseed =
  let alice, bob, h, a, b = workload nseed in
  let d = max 2 (Parent.relaxed_matching_cost alice bob) in
  let p = { Protocol.seed = nseed; enc_seed = nseed; d; u; h; s = max 2 (Parent.cardinal bob) } in
  {
    in_process =
      (fun comm ->
        recovered bob
          (Result.map
             (fun (o : Protocol.stream_outcome) -> o.Protocol.delta)
             (Protocol.run_known_stream kind ~comm ~seed:nseed ~enc_seed:None ~d ~u ~h ~alice:a ~bob:b)));
    alice = (fun ic oc -> alice_over ic oc (Protocol.alice kind p a));
    bob = (fun comm ic -> recovered bob (bob_over comm ic (Protocol.bob kind p b)));
  }

let unknown kind nseed =
  let alice, bob, h, a, b = workload nseed in
  let in_process comm =
    match Protocol.run_unknown kind ~comm ~seed:nseed ~u ~h ~alice ~bob with
    | Ok o -> Some (show_parent o.Protocol.recovered)
    | Error `Decode_failure -> None
  in
  let seed = nseed and s = max 2 (Parent.cardinal bob) in
  let params d = Protocol.doubling_params kind ~seed ~u ~h ~s ~d in
  match kind with
  | Protocol.Naive ->
    {
      in_process;
      alice = (fun ic oc -> alice_over ic oc (Naive.alice_unknown ~seed ~u ~h a));
      bob = (fun comm ic -> recovered bob (bob_over comm ic (Naive.bob_unknown ~seed ~u ~h b)));
    }
  | Protocol.Multiround ->
    {
      in_process;
      alice = (fun ic oc -> alice_over ic oc (Multiround.alice_unknown ~seed a));
      bob = (fun comm ic -> recovered bob (bob_over comm ic (Multiround.bob_unknown ~seed b)));
    }
  | Protocol.Iblt_of_iblts | Protocol.Cascade ->
    {
      in_process;
      alice = (fun ic oc -> alice_doubling ic oc ~d:1 (fun d -> Protocol.alice kind (params d) a));
      bob =
        (fun comm ic ->
          recovered bob
            (bob_doubling comm ic ~max_d:(1 lsl 22) (fun d -> Protocol.bob kind (params d) b)));
    }

(* Known d takes test_par's sos3 corpus workload; unknown d takes one big
   enough that its doubling retries. *)
let sos3_workload ~parents ~edits nseed =
  let rng = Prng.create ~seed:(Prng.derive ~seed:nseed ~tag:0x59) in
  let mk () = Parent.random rng ~universe:5_000 ~children:5 ~child_size:6 in
  let bob = Sos3.of_parents (List.init parents (fun _ -> mk ())) in
  let alice = Sos3.perturb rng ~universe:5_000 ~edits bob in
  let s = List.fold_left (fun acc p -> max acc (Parent.cardinal p)) 2 (Sos3.parents bob) in
  (alice, bob, s)

let sos3_result = function Ok t -> Some (show_sos3 t) | Error `Decode_failure -> None

let sos3_outcome = function
  | Ok (o : Sos3.outcome) -> Some (show_sos3 o.Sos3.recovered)
  | Error `Decode_failure -> None

let sos3_known nseed =
  let alice, bob, s = sos3_workload ~parents:4 ~edits:2 nseed in
  let d3, d2, d = Sos3.diff_bounds alice bob in
  let d = max 1 d and d2 = max 1 d2 and d3 = max 1 d3 and seed = nseed in
  {
    in_process = (fun comm -> sos3_outcome (Sos3.run_known ~comm ~seed ~d ~d2 ~d3 ~alice ~bob));
    alice = (fun ic oc -> alice_over ic oc (Sos3.alice ~seed ~d ~d2 ~d3 ~s alice));
    bob = (fun comm ic -> sos3_result (bob_over comm ic (Sos3.bob ~seed ~d ~d2 ~d3 ~s bob)));
  }

let sos3_unknown nseed =
  let alice, bob, s = sos3_workload ~parents:8 ~edits:30 nseed in
  let seed d = Sos3.doubling_seed ~seed:nseed ~d in
  {
    in_process = (fun comm -> sos3_outcome (Sos3.run_unknown ~comm ~seed:nseed ~alice ~bob));
    alice =
      (fun ic oc ->
        alice_doubling ic oc ~d:1 (fun d -> Sos3.alice ~seed:(seed d) ~d ~d2:d ~d3:d ~s alice));
    bob =
      (fun comm ic ->
        sos3_result
          (bob_doubling comm ic ~max_d:(1 lsl 16) (fun d ->
               Sos3.bob ~seed:(seed d) ~d ~d2:d ~d3:d ~s bob)));
  }

(* (name, whether it doubles, case); a doubling stack must retry on at
   least one seed. *)
let stacks =
  List.map (fun k -> (Protocol.name k, false, known k)) Protocol.all
  @ List.map
      (fun k ->
        (Protocol.name k ^ " unknown", k = Protocol.Iblt_of_iblts || k = Protocol.Cascade, unknown k))
      Protocol.all
  @ [ ("sos3", false, sos3_known); ("sos3 unknown", true, sos3_unknown) ]

let retried transcript =
  List.exists (String.starts_with ~prefix:"b->a retry 8:") (String.split_on_char '\n' transcript)

(* The forked run goes first: state the in-process run leaves behind in
   this process (say, a value Alice's step put in a ref for Bob's) must
   not be there to help it. *)
let test_stack (name, doubles, case) () =
  let retries = ref 0 in
  List.iter
    (fun nseed ->
      let c = case nseed in
      let what = Printf.sprintf "%s seed=0x%Lx" name nseed in
      let transcript, result, status = forked ~alice:c.alice ~bob:c.bob in
      Alcotest.(check bool) (what ^ ": child exited 0") true (status = Unix.WEXITED 0);
      let comm, expected_transcript = recording () in
      let expected = c.in_process comm in
      let expected_transcript = Buffer.contents expected_transcript in
      Alcotest.(check bool) (what ^ ": in-process run recovers") true (expected <> None);
      if retried expected_transcript then incr retries;
      Alcotest.(check string)
        (what ^ ": transcript digest")
        (Digest.to_hex (Digest.string expected_transcript))
        (Digest.to_hex (Digest.string transcript));
      Alcotest.(check (option string)) (what ^ ": Bob's result") expected result)
    [ 0x11AL; 0x22BL; 0x33CL ];
  Alcotest.(check bool) (name ^ ": retried on some seed") doubles (!retries > 0)

let () =
  Par.set_domains 1;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Two parties that both wait would block on their pipes for ever; the
     alarm ends such a run as a failure instead (the suite takes well
     under a second). *)
  ignore (Unix.alarm 120);
  Alcotest.run "ssr_fork"
    [
      ( "parties apart",
        List.map
          (fun ((name, _, _) as stack) -> Alcotest.test_case name `Quick (test_stack stack))
          stacks );
    ]
