module Buf = Ssr_util.Buf
module Rateless = Ssr_sketch.Rateless

type msg =
  | Req of { l0 : Bytes.t }
  | Reject of { retry_after_us : int }
  | Sketch of { version : int; n : int; xor_hash : int; lo : int; body : Bytes.t }
  | More of { have : int }
  | Done of { ok : bool }
  | Fin of { ok : bool }
  | Mutate of { add : bool; key : int }
  | Mut_ack of { version : int }

type packet = { shard : int; session : int; msg : msg }

(* Default L0 shape is 24 levels x 3 reps x 80 buckets of 2-bit counters
   plus framing; 8 KiB leaves generous headroom for custom shapes while
   still bounding what a hostile Req can make the server parse. *)
let max_l0_bytes = 8192

let header_len = 7

(* Sketch: header | version 8 | n u32 | xor_hash 8 | lo u32 | count u32 |
   body (count cells), which starts at this offset. *)
let body_off = header_len + 28

let tag_of_msg = function
  | Req _ -> 1
  | Reject _ -> 2
  | Sketch _ -> 3
  | More _ -> 4
  | Done _ -> 5
  | Fin _ -> 6
  | Mutate _ -> 7
  | Mut_ack _ -> 8

let check_u ~what v bits =
  if v < 0 || (bits < 62 && v lsr bits <> 0) then
    invalid_arg (Printf.sprintf "Wire.encode: %s out of range" what)

let set_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)

let encode { shard; session; msg } =
  check_u ~what:"shard" shard 16;
  check_u ~what:"session" session 32;
  let body_len =
    match msg with
    | Req { l0 } ->
      if Bytes.length l0 > max_l0_bytes then invalid_arg "Wire.encode: oversized l0";
      2 + Bytes.length l0
    | Reject _ -> 4
    | Sketch { body; _ } -> body_off - header_len + Bytes.length body
    | More _ -> 4
    | Done _ | Fin _ -> 1
    | Mutate _ -> 9
    | Mut_ack _ -> 8
  in
  let b = Bytes.create (header_len + body_len) in
  Bytes.set_uint8 b 0 (tag_of_msg msg);
  Bytes.set_uint16_le b 1 shard;
  set_u32 b 3 session;
  (match msg with
  | Req { l0 } ->
    Bytes.set_uint16_le b 7 (Bytes.length l0);
    Bytes.blit l0 0 b 9 (Bytes.length l0)
  | Reject { retry_after_us } ->
    check_u ~what:"retry_after_us" retry_after_us 32;
    set_u32 b 7 retry_after_us
  | Sketch { version; n; xor_hash; lo; body } ->
    check_u ~what:"version" version 62;
    check_u ~what:"n" n 32;
    check_u ~what:"xor_hash" xor_hash 62;
    check_u ~what:"lo" lo 32;
    let count = Bytes.length body / Rateless.cell_bytes in
    if Bytes.length body mod Rateless.cell_bytes <> 0 || lo + count > Rateless.max_index then
      invalid_arg "Wire.encode: window not whole cells inside the stream";
    Buf.set_int_le b 7 version;
    set_u32 b 15 n;
    Buf.set_int_le b 19 xor_hash;
    set_u32 b 27 lo;
    set_u32 b 31 count;
    Bytes.blit body 0 b body_off (Bytes.length body)
  | More { have } ->
    check_u ~what:"have" have 32;
    set_u32 b 7 have
  | Done { ok } -> Bytes.set_uint8 b 7 (if ok then 1 else 0)
  | Fin { ok } -> Bytes.set_uint8 b 7 (if ok then 1 else 0)
  | Mutate { add; key } ->
    check_u ~what:"key" key 62;
    Bytes.set_uint8 b 7 (if add then 1 else 0);
    Buf.set_int_le b 8 key
  | Mut_ack { version } ->
    check_u ~what:"version" version 62;
    Buf.set_int_le b 7 version);
  b

(* ---- Total decoding. Lengths first, then values, then ranges. ---- *)

let get_u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF

let ( let* ) o f = match o with None -> None | Some v -> f v

let bool_of_u8 = function 0 -> Some false | 1 -> Some true | _ -> None

let nonneg v = if v >= 0 then Some v else None

let decode_opt b =
  let len = Bytes.length b in
  if len < header_len then None
  else begin
    let tag = Bytes.get_uint8 b 0 in
    let shard = Bytes.get_uint16_le b 1 in
    let session = get_u32 b 3 in
    let* msg =
      match tag with
      | 1 ->
        if len < header_len + 2 then None
        else begin
          let l0_len = Bytes.get_uint16_le b 7 in
          if l0_len > max_l0_bytes || len <> 9 + l0_len then None
          else Some (Req { l0 = Bytes.sub b 9 l0_len })
        end
      | 2 -> if len <> 11 then None else Some (Reject { retry_after_us = get_u32 b 7 })
      | 3 ->
        if len < body_off then None
        else begin
          let* version = Buf.get_int_le_opt b 7 in
          let* version = nonneg version in
          let n = get_u32 b 15 in
          let* xor_hash = Buf.get_int_le_opt b 19 in
          let* xor_hash = nonneg xor_hash in
          let lo = get_u32 b 27 in
          let count = get_u32 b 31 in
          if len <> body_off + (count * Rateless.cell_bytes) || lo + count > Rateless.max_index
          then None
          else
            Some
              (Sketch
                 { version; n; xor_hash; lo; body = Bytes.sub b body_off (len - body_off) })
        end
      | 4 -> if len <> 11 then None else Some (More { have = get_u32 b 7 })
      | 5 ->
        if len <> 8 then None
        else
          let* ok = bool_of_u8 (Bytes.get_uint8 b 7) in
          Some (Done { ok })
      | 6 ->
        if len <> 8 then None
        else
          let* ok = bool_of_u8 (Bytes.get_uint8 b 7) in
          Some (Fin { ok })
      | 7 ->
        if len <> 16 then None
        else
          let* add = bool_of_u8 (Bytes.get_uint8 b 7) in
          let* key = Buf.get_int_le_opt b 8 in
          let* key = nonneg key in
          Some (Mutate { add; key })
      | 8 ->
        if len <> 15 then None
        else
          let* version = Buf.get_int_le_opt b 7 in
          let* version = nonneg version in
          Some (Mut_ack { version })
      | _ -> None
    in
    Some { shard; session; msg }
  end
