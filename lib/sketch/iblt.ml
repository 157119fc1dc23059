module Hashing = Ssr_util.Hashing
module Prng = Ssr_util.Prng
module Buf = Ssr_util.Buf
module Bits = Ssr_util.Bits
module Metrics = Ssr_obs.Metrics

(* Process-wide sketch metrics; read as before/after diffs by the protocol
   cost reports. Each is one unboxed write on its hot path. *)
let m_inserts = Metrics.counter "iblt.inserts"
let m_deletes = Metrics.counter "iblt.deletes"
let m_decode_attempts = Metrics.counter "iblt.decode.attempts"
let m_decode_success = Metrics.counter "iblt.decode.success"
let m_decode_stuck = Metrics.counter "iblt.decode.stuck"
let m_pure_candidates = Metrics.counter "iblt.decode.pure_candidates"
let m_checksum_rejects = Metrics.counter "iblt.decode.checksum_rejects"
let m_peels = Metrics.counter "iblt.decode.peels"
let m_bad_int_keys = Metrics.counter "iblt.decode.bad_int_keys"
let d_recovered = Metrics.dist "iblt.decode.recovered_keys"

type params = { cells : int; k : int; key_len : int; seed : int64 }

(* ---- Packed cell store. ----

   One buffer, one cell = one contiguous slice:

     [ count : i32 LE | key XOR : key_len bytes | checksum XOR : cw LE ]

   so a cell visit touches one cache line instead of three arrays' worth,
   and the in-memory representation IS the wire representation —
   [body_bytes] is a memcpy. The checksum width [cw] is 8 bytes at the
   default 62-bit width (the historical wire format, byte-identical) and
   can be narrowed to 1/2/4 bytes when the expected difference is small
   enough that a shorter guard suffices. *)

type t = {
  prm : params;
  check_bits : int; (* 8, 16, 32 or 62 *)
  check_bytes : int; (* 1, 2, 4 or 8 *)
  check_mask : int; (* (1 lsl check_bits) - 1 *)
  cell_bytes : int; (* 4 + key_len + check_bytes *)
  per_part : int;
  buf : Bytes.t; (* cells * cell_bytes, packed as above *)
  fn : Hashing.fn;
  scratch : Bytes.t; (* key_len bytes; integer fast path + decode probes *)
  lanes : int array; (* 8 entries; hash-lane out-parameter, never escapes *)
  nz : int array; (* key_len / 8 entries; one update's nonzero-word offsets *)
}

let params t = t.prm

let hash_tag = 0x1B17

let check_bytes_of_bits = function
  | 8 -> 1
  | 16 -> 2
  | 32 -> 4
  | 62 -> 8
  | _ -> invalid_arg "Iblt: check_bits must be 8, 16, 32 or 62"

let normalize_params prm =
  if prm.k < 2 then invalid_arg "Iblt: need at least 2 hash functions";
  if prm.key_len < 1 then invalid_arg "Iblt: key_len must be positive";
  let cells = max prm.k prm.cells in
  let cells = Bits.ceil_div cells prm.k * prm.k in
  (* The multiply-shift position reduction works on 31-bit partitions; a
     larger table would not fit in memory anyway. *)
  if cells / prm.k > 1 lsl 31 then invalid_arg "Iblt: table too large";
  { prm with cells }

let create ?(check_bits = 62) prm =
  let check_bytes = check_bytes_of_bits check_bits in
  let prm = normalize_params prm in
  let cell_bytes = 4 + prm.key_len + check_bytes in
  {
    prm;
    check_bits;
    check_bytes;
    check_mask = (1 lsl check_bits) - 1;
    cell_bytes;
    per_part = prm.cells / prm.k;
    buf = Bytes.make (prm.cells * cell_bytes) '\000';
    fn = Hashing.make ~seed:prm.seed ~tag:hash_tag;
    scratch = Bytes.make prm.key_len '\000';
    lanes = Array.make 8 0;
    nz = Array.make (prm.key_len / 8) 0;
  }

let copy t =
  (* Every mutable field is duplicated: a copy must never alias the
     original's cell store or scratch state. *)
  {
    t with
    buf = Bytes.copy t.buf;
    scratch = Bytes.make t.prm.key_len '\000';
    lanes = Array.make 8 0;
    nz = Array.make (t.prm.key_len / 8) 0;
  }

let recommended_cells ~k ~diff_bound =
  let base = max (2 * k) ((2 * diff_bound) + 12) in
  Bits.ceil_div base k * k

(* ---- Cell field accessors (checked; cold paths). ---- *)

let get_count t c = Int32.to_int (Bytes.get_int32_le t.buf (c * t.cell_bytes))

let get_check t c =
  let off = (c * t.cell_bytes) + 4 + t.prm.key_len in
  match t.check_bytes with
  | 1 -> Bytes.get_uint8 t.buf off
  | 2 -> Bytes.get_uint16_le t.buf off
  | 4 -> Int32.to_int (Bytes.get_int32_le t.buf off) land 0xFFFFFFFF
  | _ -> Int64.to_int (Bytes.get_int64_le t.buf off) land ((1 lsl 62) - 1)

(* ---- Unchecked little-endian accessors (hot paths). ----

   [Buf]'s unchecked accessors read and write host order, while every
   numeric cell field is little-endian on the wire. These swap on
   big-endian hosts, as the stdlib's [Bytes.get_int64_le] does;
   [Sys.big_endian] is a compile-time constant, so on little-endian hosts
   each compiles to the bare load or store. They stay private to this
   module: a non-external function called from another module boxes its
   [int32]/[int64] result unless it is inlined, and the insert paths must
   not allocate. *)

external swap16 : int -> int = "%bswap16"
external swap32 : int32 -> int32 = "%bswap_int32"
external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] get16_le b off =
  if Sys.big_endian then swap16 (Buf.unsafe_get_int16_ne b off) else Buf.unsafe_get_int16_ne b off

let[@inline] set16_le b off v =
  if Sys.big_endian then Buf.unsafe_set_int16_ne b off (swap16 v)
  else Buf.unsafe_set_int16_ne b off v

let[@inline] get32_le b off =
  if Sys.big_endian then swap32 (Buf.unsafe_get_int32_ne b off) else Buf.unsafe_get_int32_ne b off

let[@inline] set32_le b off v =
  if Sys.big_endian then Buf.unsafe_set_int32_ne b off (swap32 v)
  else Buf.unsafe_set_int32_ne b off v

let[@inline] get64_le b off =
  if Sys.big_endian then swap64 (Buf.unsafe_get_int64_ne b off) else Buf.unsafe_get_int64_ne b off

let[@inline] set64_le b off v =
  if Sys.big_endian then Buf.unsafe_set_int64_ne b off (swap64 v)
  else Buf.unsafe_set_int64_ne b off v

(* List the byte offsets of [key]'s nonzero whole words in [t.nz] and
   return how many there are. One update scans its key once and then
   XORs only those words into each of its k cells: a zero word XORs to
   nothing, and the nested protocols' wide keys are mostly zero (an
   iblt-of-iblts key at d = 64 is 2,807 bytes, 6% of its words
   nonzero). The scan is branch-free, because where the nonzero words
   fall is unpredictable: every offset is written at the current end of
   the list (which is never past the word being read), and the end only
   moves past a nonzero word. *)
let nonzero_words t key =
  let nz = t.nz in
  let n = ref 0 in
  for w = 0 to Array.length nz - 1 do
    Array.unsafe_set nz !n (w * 8);
    n := !n + Bool.to_int (Buf.unsafe_get_int64_ne key (w * 8) <> 0L)
  done;
  !n

(* XOR [key] and [cs] into cell [c] and add [sign] to its count, given the
   first [nnz] offsets of [t.nz] (from {!nonzero_words}, so [nnz] never
   exceeds the array's length): the count and each listed key word are
   single load-xor-store round trips. Key words
   XOR in host order, which commutes with byte order. The key tail (when
   [key_len] is not a multiple of 8) goes byte-wise — a word there would
   clobber the adjacent checksum field. *)
let poke t c key nnz cs sign =
  let buf = t.buf in
  let base = c * t.cell_bytes in
  let kl = t.prm.key_len in
  set32_le buf base (Int32.of_int (Int32.to_int (get32_le buf base) + sign));
  let nz = t.nz in
  for j = 0 to nnz - 1 do
    let w = Array.unsafe_get nz j in
    let off = base + 4 + w in
    Buf.unsafe_set_int64_ne buf off
      (Int64.logxor (Buf.unsafe_get_int64_ne buf off) (Buf.unsafe_get_int64_ne key w))
  done;
  for i = kl / 8 * 8 to kl - 1 do
    Bytes.unsafe_set buf (base + 4 + i)
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get buf (base + 4 + i)) lxor Char.code (Bytes.unsafe_get key i)))
  done;
  let off = base + 4 + kl in
  match t.check_bytes with
  | 1 -> Bytes.unsafe_set buf off (Char.unsafe_chr (Char.code (Bytes.unsafe_get buf off) lxor cs))
  | 2 -> set16_le buf off (get16_le buf off lxor cs)
  | 4 -> set32_le buf off (Int32.logxor (get32_le buf off) (Int32.of_int cs))
  | _ -> set64_le buf off (Int64.logxor (get64_le buf off) (Int64.of_int cs))

(* One hash pass per key: the native-int lanes (h1, h2) seed the position
   schedule — the state walks [s <- mix_int (s + h2)] from [s = h1] and
   partition i's cell is [i * per_part + reduce_fast s per_part] — and the
   checksum is mixed from the same two lanes. This replaces the k + 1
   independent full scans of the key the naive schedule pays, and stays on
   native ints throughout so the per-cell loop never allocates. The
   per-partition [mix_int] matters: a bare arithmetic progression
   [h1 + i*h2] lets key pairs with nearby [h2] collide in every partition
   with probability ~[1/per_part^2] (instead of [1/per_part^k]), which
   measurably wrecks peeling at the paper's small-table sizes. Finalizing
   each step restores independent-looking positions; this is exactly a
   k-step SplitMix stream with gamma [h2]. *)

(* Word-wide schedule walk for the dominant shape — keys whose data lives
   entirely in their first 8-byte word ([key_len = 8] byte keys, or integer
   keys at any [key_len >= 8]: the zero padding XORs away) at the default
   8-byte checksum width. Each cell visit is three load-xor-store round
   trips on one contiguous slice, every int64 stays in a register, and the
   ubiquitous k = 4 case is unrolled so all four cells' positions are known
   before the first update — the out-of-order window then overlaps their
   cache misses instead of serializing them behind the mix chain. The key
   word is a number — a byte key's first 8 bytes read little-endian, or
   the integer key itself — so like the count and checksum it is stored
   little-endian.

   The key word travels as two 32-bit native-int halves and is reassembled
   here: an [int64] crossing a function boundary is boxed (3 words per
   call), and this function is exactly the allocation the zero-alloc
   insert/delete contract forbids. *)
let apply_words t ~h1 ~h2 ~kw_lo ~kw_hi ~cs sign =
  let per_part = t.per_part and cb = t.cell_bytes in
  let buf = t.buf in
  let coff = 4 + t.prm.key_len in
  let kw = Int64.logor (Int64.shift_left (Int64.of_int kw_hi) 32) (Int64.of_int kw_lo) in
  let cw = Int64.of_int cs in
  if t.prm.k = 4 then begin
    let s1 = Prng.mix_int (h1 + h2) in
    let s2 = Prng.mix_int (s1 + h2) in
    let s3 = Prng.mix_int (s2 + h2) in
    let s4 = Prng.mix_int (s3 + h2) in
    let b0 = Hashing.reduce_fast s1 per_part * cb in
    let b1 = (per_part + Hashing.reduce_fast s2 per_part) * cb in
    let b2 = ((2 * per_part) + Hashing.reduce_fast s3 per_part) * cb in
    let b3 = ((3 * per_part) + Hashing.reduce_fast s4 per_part) * cb in
    set32_le buf b0 (Int32.of_int (Int32.to_int (get32_le buf b0) + sign));
    set64_le buf (b0 + 4) (Int64.logxor (get64_le buf (b0 + 4)) kw);
    set64_le buf (b0 + coff) (Int64.logxor (get64_le buf (b0 + coff)) cw);
    set32_le buf b1 (Int32.of_int (Int32.to_int (get32_le buf b1) + sign));
    set64_le buf (b1 + 4) (Int64.logxor (get64_le buf (b1 + 4)) kw);
    set64_le buf (b1 + coff) (Int64.logxor (get64_le buf (b1 + coff)) cw);
    set32_le buf b2 (Int32.of_int (Int32.to_int (get32_le buf b2) + sign));
    set64_le buf (b2 + 4) (Int64.logxor (get64_le buf (b2 + 4)) kw);
    set64_le buf (b2 + coff) (Int64.logxor (get64_le buf (b2 + coff)) cw);
    set32_le buf b3 (Int32.of_int (Int32.to_int (get32_le buf b3) + sign));
    set64_le buf (b3 + 4) (Int64.logxor (get64_le buf (b3 + 4)) kw);
    set64_le buf (b3 + coff) (Int64.logxor (get64_le buf (b3 + coff)) cw)
  end
  else begin
    let s = ref h1 in
    for i = 0 to t.prm.k - 1 do
      s := Prng.mix_int (!s + h2);
      let base = ((i * per_part) + Hashing.reduce_fast !s per_part) * cb in
      set32_le buf base (Int32.of_int (Int32.to_int (get32_le buf base) + sign));
      set64_le buf (base + 4) (Int64.logxor (get64_le buf (base + 4)) kw);
      set64_le buf (base + coff) (Int64.logxor (get64_le buf (base + coff)) cw)
    done
  end

(* Add [sign] copies of [key] (sign is +1 or -1), given its hash pair. *)
let apply_hashed t key ~h1 ~h2 ~cs sign =
  if t.prm.key_len = 8 && t.check_bytes = 8 then begin
    let kw = get64_le key 0 in
    let kw_lo = Int64.to_int (Int64.logand kw 0xFFFFFFFFL) in
    let kw_hi = Int64.to_int (Int64.shift_right_logical kw 32) in
    apply_words t ~h1 ~h2 ~kw_lo ~kw_hi ~cs sign
  end
  else begin
    let nnz = nonzero_words t key in
    let per_part = t.per_part in
    let s = ref h1 in
    for i = 0 to t.prm.k - 1 do
      s := Prng.mix_int (!s + h2);
      poke t ((i * per_part) + Hashing.reduce_fast !s per_part) key nnz cs sign
    done
  end

let apply_lanes t key lanes i sign =
  let h1 = lanes.(i) and h2 = lanes.(i + 1) in
  apply_hashed t key ~h1 ~h2 ~cs:(Hashing.mix_pair h1 h2 land t.check_mask) sign

let apply_raw t key sign =
  Hashing.hash_bytes_into t.fn key t.lanes;
  apply_lanes t key t.lanes 0 sign

let apply t key sign =
  if Bytes.length key <> t.prm.key_len then invalid_arg "Iblt: key length mismatch";
  Metrics.incr (if sign >= 0 then m_inserts else m_deletes);
  apply_raw t key sign

let insert t key = apply t key 1
let delete t key = apply t key (-1)

(* Integer fast path: hash the value directly (the lanes of its
   little-endian encoding are computable without the bytes) and, on the
   word path, update cells straight from the value — no buffer is touched
   at all. The narrow-checksum fallback encodes into the table's scratch
   key instead of allocating a fresh buffer per call. *)
let set_int_scratch t x =
  if t.prm.key_len < 8 then invalid_arg "Iblt: integer keys need key_len >= 8";
  if t.prm.key_len > 8 then Bytes.fill t.scratch 8 (t.prm.key_len - 8) '\000';
  Buf.set_int_le t.scratch 0 x

let apply_int_raw t x sign =
  let kl = t.prm.key_len in
  Hashing.hash_int_bytes_into t.fn x ~len:kl t.lanes;
  let h1 = t.lanes.(0) and h2 = t.lanes.(1) in
  let cs = Hashing.mix_pair h1 h2 land t.check_mask in
  if t.check_bytes = 8 then begin
    let kw = Int64.of_int x in
    let kw_lo = Int64.to_int (Int64.logand kw 0xFFFFFFFFL) in
    let kw_hi = Int64.to_int (Int64.shift_right_logical kw 32) in
    apply_words t ~h1 ~h2 ~kw_lo ~kw_hi ~cs sign
  end
  else begin
    (* The value fills word 0 and its padding is zero, so word 0 is the
       whole nonzero list: no scan. *)
    set_int_scratch t x;
    t.nz.(0) <- 0;
    let per_part = t.per_part in
    let s = ref h1 in
    for i = 0 to t.prm.k - 1 do
      s := Prng.mix_int (!s + h2);
      poke t ((i * per_part) + Hashing.reduce_fast !s per_part) t.scratch 1 cs sign
    done
  end

let apply_int t x sign =
  if t.prm.key_len < 8 then invalid_arg "Iblt: integer keys need key_len >= 8";
  Metrics.incr (if sign >= 0 then m_inserts else m_deletes);
  apply_int_raw t x sign

let insert_int t x = apply_int t x 1
let delete_int t x = apply_int t x (-1)

(* Batch updates check every key up front, so a bad key array leaves the
   table untouched, then apply the keys one at a time. *)
let batch_apply_ints t xs sign =
  let n = Array.length xs in
  if n > 0 && t.prm.key_len < 8 then invalid_arg "Iblt: integer keys need key_len >= 8";
  Metrics.add (if sign >= 0 then m_inserts else m_deletes) n;
  for j = 0 to n - 1 do
    apply_int_raw t xs.(j) sign
  done

(* Byte keys hash four at a time through the interleaved digest, then
   apply one by one; a tail of fewer than four hashes singly. *)
let batch_apply t keys sign =
  let n = Array.length keys in
  for j = 0 to n - 1 do
    if Bytes.length keys.(j) <> t.prm.key_len then invalid_arg "Iblt: key length mismatch"
  done;
  Metrics.add (if sign >= 0 then m_inserts else m_deletes) n;
  let lanes = t.lanes in
  for g = 0 to (n / 4) - 1 do
    let j = 4 * g in
    Hashing.hash_bytes4_into t.fn keys.(j) keys.(j + 1) keys.(j + 2) keys.(j + 3) lanes;
    for i = 0 to 3 do
      apply_lanes t keys.(j + i) lanes (2 * i) sign
    done
  done;
  for j = n / 4 * 4 to n - 1 do
    apply_raw t keys.(j) sign
  done

let add_all t keys = batch_apply t keys 1
let delete_all t keys = batch_apply t keys (-1)
let add_all_ints t xs = batch_apply_ints t xs 1
let delete_all_ints t xs = batch_apply_ints t xs (-1)

let subtract a b =
  if a.prm <> b.prm || a.check_bits <> b.check_bits then
    invalid_arg "Iblt.subtract: parameter mismatch";
  let out = copy a in
  let cb = a.cell_bytes in
  (* Key XOR and checksum XOR are adjacent, so one region XOR per cell
     covers both; the count field subtracts as an i32. *)
  let region = a.prm.key_len + a.check_bytes in
  for c = 0 to a.prm.cells - 1 do
    let base = c * cb in
    Bytes.set_int32_le out.buf base
      (Int32.sub (Bytes.get_int32_le a.buf base) (Bytes.get_int32_le b.buf base));
    Buf.xor_region_into ~dst:out.buf ~dst_pos:(base + 4) b.buf ~src_pos:(base + 4) ~len:region
  done;
  out

let is_empty t = Buf.is_zero t.buf

type decoded = { positives : Bytes.t list; negatives : Bytes.t list }

(* Peel as far as the table allows, on a copy. Returns the worked table
   (empty iff the decode completed) alongside the recovered keys; [decode]
   keeps the all-or-nothing contract on top of this. *)
let peel t =
  let t = copy t in
  let cells = t.prm.cells and kl = t.prm.key_len in
  let positives = ref [] and negatives = ref [] in
  (* Work list as an explicit stack plus an in-stack bitmap: a cell is
     enqueued at most once per state change, so a [cells]-sized array can
     never overflow and peeling allocates nothing per step. *)
  let stack = Array.init cells (fun c -> c) in
  let in_stack = Bytes.make cells '\001' in
  let top = ref cells and peeled = ref 0 in
  while !top > 0 do
    decr top;
    let c = stack.(!top) in
    Bytes.unsafe_set in_stack c '\000';
    let count = get_count t c in
    if count = 1 || count = -1 then begin
      Metrics.incr m_pure_candidates;
      (* Probe with the shared scratch key; only a cell that passes the
         checksum (i.e. is pure) pays for a fresh copy of its key. *)
      Bytes.blit t.buf ((c * t.cell_bytes) + 4) t.scratch 0 kl;
      Hashing.hash_bytes_into t.fn t.scratch t.lanes;
      let h1 = t.lanes.(0) and h2 = t.lanes.(1) in
      let cs = Hashing.mix_pair h1 h2 land t.check_mask in
      if get_check t c <> cs then Metrics.incr m_checksum_rejects
      else if !peeled = cells then
        (* A genuine peel empties a distinct cell per key, so a key past
           the [cells]-th is being peeled out of cells that never held it
           (bytes sliced under other parameters, or crafted ones), which
           can go on without end: stop, and the table stays stuck. *)
        top := 0
      else begin
        incr peeled;
        Metrics.incr m_peels;
        let key = Bytes.sub t.buf ((c * t.cell_bytes) + 4) kl in
        if count = 1 then positives := key :: !positives else negatives := key :: !negatives;
        (* Remove the key and re-examine its k cells in one walk of the
           position schedule. *)
        let nnz = nonzero_words t key in
        let s = ref h1 in
        for i = 0 to t.prm.k - 1 do
          s := Prng.mix_int (!s + h2);
          let c' = (i * t.per_part) + Hashing.reduce_fast !s t.per_part in
          poke t c' key nnz cs (-count);
          if Bytes.unsafe_get in_stack c' = '\000' then begin
            Bytes.unsafe_set in_stack c' '\001';
            stack.(!top) <- c';
            incr top
          end
        done
      end
    end
  done;
  (t, { positives = !positives; negatives = !negatives })

let decode t =
  Metrics.incr m_decode_attempts;
  let worked, dec = peel t in
  if is_empty worked then begin
    Metrics.incr m_decode_success;
    Metrics.observe d_recovered (List.length dec.positives + List.length dec.negatives);
    Ok dec
  end
  else begin
    Metrics.incr m_decode_stuck;
    Error `Peel_stuck
  end

(* ---- Schedule introspection. ---- *)

let positions t key =
  if Bytes.length key <> t.prm.key_len then invalid_arg "Iblt.positions: key length mismatch";
  let h1, h2 = Hashing.hash_bytes_pair t.fn key in
  let out = Array.make t.prm.k 0 in
  let s = ref h1 in
  for i = 0 to t.prm.k - 1 do
    s := Prng.mix_int (!s + h2);
    out.(i) <- (i * t.per_part) + Hashing.reduce_fast !s t.per_part
  done;
  out

let positions_int t x =
  set_int_scratch t x;
  positions t t.scratch

let decode_ints t =
  match decode t with
  | Error _ as e -> e
  | Ok { positives; negatives } ->
    (* A peeled key that does not parse back to a non-negative integer —
       sign bit set, or a 64-bit value outside the native int range — means
       the table was corrupted in transit (or suffered an undetected
       checksum collision): report a detected failure, never raise. *)
    let rec conv acc = function
      | [] -> Some (List.rev acc)
      | key :: rest -> (
        match Buf.get_int_le_opt key 0 with
        | Some v when v >= 0 -> conv (v :: acc) rest
        | _ -> None)
    in
    (match (conv [] positives, conv [] negatives) with
     | Some p, Some n -> Ok (p, n)
     | _ ->
       Metrics.incr m_bad_int_keys;
       Error `Peel_stuck)

let body_length ?(check_bits = 62) prm =
  let cw = check_bytes_of_bits check_bits in
  let prm = normalize_params prm in
  prm.cells * (4 + prm.key_len + cw)

(* The packed store is already in wire order (every field little-endian),
   so serialization is a copy of the buffer. *)
let body_bytes t = Bytes.copy t.buf

let blit_body t dst pos = Bytes.blit t.buf 0 dst pos (Bytes.length t.buf)

let clear t = Bytes.fill t.buf 0 (Bytes.length t.buf) '\000'

let of_body_bytes_opt ?(check_bits = 62) prm body =
  (* Length is validated against the (cheap, arithmetic-only) normalized
     parameters before any cell storage is allocated, so an absurd
     attacker-controlled size field cannot drive a huge allocation. *)
  let cw = check_bytes_of_bits check_bits in
  let nprm = normalize_params prm in
  let cell_bytes = 4 + nprm.key_len + cw in
  if Bytes.length body <> nprm.cells * cell_bytes then None
  else begin
    let t = create ~check_bits prm in
    Bytes.blit body 0 t.buf 0 (Bytes.length body);
    (* 62-bit checksums occupy a full wire word; masking the top two bits
       keeps deserialization total on corrupted transports (the damage then
       surfaces as a checksum mismatch during peeling, i.e. a detected
       decode failure). Narrower widths use every bit of their field. *)
    if cw = 8 then begin
      let mask = 0x3FFF_FFFF_FFFF_FFFFL in
      for c = 0 to nprm.cells - 1 do
        let off = (c * cell_bytes) + 4 + nprm.key_len in
        Bytes.set_int64_le t.buf off (Int64.logand (Bytes.get_int64_le t.buf off) mask)
      done
    end;
    Some t
  end

let of_body_bytes ?check_bits prm body =
  match of_body_bytes_opt ?check_bits prm body with
  | Some t -> t
  | None -> invalid_arg "Iblt.of_body_bytes: length mismatch"

let size_bits t = 8 * Bytes.length t.buf
