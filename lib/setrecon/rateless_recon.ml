module Iset = Ssr_util.Iset
module Buf = Ssr_util.Buf
module Codec = Ssr_util.Codec
module Rateless = Ssr_sketch.Rateless
module Metrics = Ssr_obs.Metrics

let m_cells_sent = Metrics.counter "rateless.cells_sent"
let m_ack_rounds = Metrics.counter "rateless.ack_rounds"
let m_cycles = Metrics.counter "proto.set.rateless.cycles"
let m_lost_windows = Metrics.counter "proto.set.rateless.lost_windows"
let m_failures = Metrics.counter "proto.set.rateless.failures"

(* ---- Wire codecs. ---- *)

let window_header_bytes = 4 + 4 + 8

let cell_bytes = Rateless.cell_bytes

let encode_window ~lo ~alice_hash ~cells =
  if Bytes.length cells mod cell_bytes <> 0 then
    invalid_arg "Rateless_recon.encode_window: misaligned cells";
  let b = Bytes.create (window_header_bytes + Bytes.length cells) in
  Bytes.set_int32_le b 0 (Int32.of_int lo);
  Bytes.set_int32_le b 4 (Int32.of_int (Bytes.length cells / cell_bytes));
  Buf.set_int_le b 8 alice_hash;
  Bytes.blit cells 0 b window_header_bytes (Bytes.length cells);
  b

let window_of_bytes_opt bytes =
  let r = Codec.reader bytes in
  match (Codec.u32 r, Codec.u32 r, Codec.int62 r) with
  | Some lo, Some count, Some alice_hash ->
    (* Validate the claimed count against the exact remaining length
       before any allocation: a hostile 0xFFFFFFFF never reaches
       Bytes.create. *)
    if Codec.remaining r = count * cell_bytes && lo + count <= Rateless.max_index then
      match Codec.take r (count * cell_bytes) with
      | Some cells when Codec.at_end r -> Some (lo, alice_hash, cells)
      | _ -> None
    else None
  | _ -> None

let encode_ack ~done_ ~have =
  let b = Bytes.create 5 in
  Bytes.set_uint8 b 0 (if done_ then 1 else 0);
  Bytes.set_int32_le b 1 (Int32.of_int have);
  b

let ack_of_bytes_opt bytes =
  let r = Codec.reader bytes in
  match (Codec.u8 r, Codec.u32 r) with
  | Some flag, Some have when Codec.at_end r && flag <= 1 -> Some (flag = 1, have)
  | _ -> None

(* ---- The windowed stream protocol. ----

   A single driver plays both sides, like Set_recon.run_known_d: the
   simulated transport between them is where loss and corruption happen.
   Alice's cursor only ever moves forward — a lost window leaves a gap in
   Bob's absorbed set (which the decoder peels around) and the next window
   carries fresh parity instead of a retransmission. Bob's ACK carries his
   done flag and [have], his next absorbed index, but Alice reads only the
   flag: [have] is on the wire for a sender that streams only what the
   receiver lacks (ROADMAP item 13). A lost ACK that was not done costs
   its 5 bytes. A lost done-ACK costs one more doubled window, of up to
   8 192 cells (128 KB), after which Bob's re-ACK ends the stream. *)

let run ~comm ~seed ?(initial_window = 32) ?(max_cells = 1 lsl 16) ~alice ~bob () =
  let src = Rateless.source_of_ints ~seed (Iset.to_array alice) in
  let dec = Rateless.decoder_of_ints ~seed (Iset.to_array bob) in
  let alice_hash = Set_recon.set_hash ~seed alice in
  (* The whole-set hash Bob was last delivered in a window. *)
  let delivered_hash = ref None in
  let finish () =
    (* Bob's completion test: a clean peel that passes the whole-set
       hash he was delivered. A false decode candidate fails here and the
       stream simply continues — never a silent acceptance. *)
    match (Rateless.decoded_ints dec, !delivered_hash) with
    | Some (pos, neg), Some hash ->
      let alice_minus_bob = Iset.of_list pos in
      let bob_minus_alice = Iset.of_list neg in
      let recovered = Iset.apply_diff bob ~add:alice_minus_bob ~del:bob_minus_alice in
      if Set_recon.set_hash ~seed recovered = hash then
        Some (recovered, alice_minus_bob, bob_minus_alice)
      else None
    | _ -> None
  in
  let rec cycle lo w =
    if lo >= max_cells then begin
      Metrics.incr m_failures;
      Error `Decode_failure
    end
    else begin
      Metrics.incr m_cycles;
      let hi = min max_cells (lo + w) in
      let window =
        encode_window ~lo ~alice_hash ~cells:(Rateless.cells src ~lo ~hi)
      in
      Metrics.add m_cells_sent (hi - lo);
      (* Bob's view of the window: everything rides Comm.xfer, so the
         attached transport decides what (if anything) arrives. *)
      (match Comm.xfer comm Comm.A_to_b ~label:"rateless-cells" window with
      | Error `Lost -> Metrics.incr m_lost_windows
      | Ok delivered -> (
        match window_of_bytes_opt delivered with
        | None -> Metrics.incr m_lost_windows
        | Some (lo', hash, cells) ->
          delivered_hash := Some hash;
          ignore (Rateless.absorb dec ~lo:lo' cells)));
      let bob_done = finish () in
      let ack = encode_ack ~done_:(bob_done <> None) ~have:(Rateless.next_index dec) in
      Metrics.incr m_ack_rounds;
      let alice_sees_done =
        match Comm.xfer comm Comm.B_to_a ~label:"rateless-ack" ack with
        | Error `Lost -> false
        | Ok delivered -> (
          match ack_of_bytes_opt delivered with
          | Some (done_, _have) -> done_
          | None -> false)
      in
      match bob_done with
      | Some (recovered, alice_minus_bob, bob_minus_alice) when alice_sees_done ->
        Ok
          {
            Set_recon.recovered;
            alice_minus_bob;
            bob_minus_alice;
            stats = Comm.stats comm;
          }
      | _ ->
        (* Done but the ACK was lost: Alice keeps streaming, Bob re-acks
           next cycle (his absorb of already-done cells is a no-op). *)
        cycle hi (min 8192 (2 * w))
    end
  in
  cycle 0 (max 1 initial_window)
