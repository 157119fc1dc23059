module Prng = Ssr_util.Prng
module Hashing = Ssr_util.Hashing
module Buf = Ssr_util.Buf
module Metrics = Ssr_obs.Metrics

let m_cells_useful = Metrics.counter "rateless.cells_useful"
let m_peeled = Metrics.counter "rateless.peeled"
let m_bad_int_keys = Metrics.counter "rateless.bad_int_keys"
let m_walk_steps = Metrics.counter "rateless.walk_steps"
let m_key_walk_steps = Metrics.counter "rateless.key_walk_steps"

let hash_tag = 0x7A7E

(* Keeps every product in the skip arithmetic below 2^53, so the float
   evaluation of the inverse CDF is exact where it has to be. *)
let max_index = 1 lsl 26

(* count i32 LE | key 8 bytes LE | checksum u32 LE *)
let cell_bytes = 16
let check_mask = 0xFFFF_FFFF

(* ---- The index schedule. ----

   Element membership: an element belongs to coded cell [i] independently
   with probability p_i = 2 / (i + 2) (so p_0 = 1: cell 0 sums the whole
   pool). Rather than testing every (element, cell) pair, each element owns
   a deterministic stream of uniform draws and walks its member indices
   directly by inverse-CDF skip sampling: from member index [m],
   P(no member in (m, j]) telescopes to (m+1)(m+2) / ((j+1)(j+2)), so the
   next member is the smallest j with (j+1)(j+2) >= (m+1)(m+2) * 2^32 / r
   for a uniform 32-bit draw r. Expected members up to index N is ~2 ln N,
   so a walk up to cell N takes ~1 + 2 ln N steps instead of N membership
   tests. Every walk keeps a cursor where its last window left it (see
   [write]), so a stream of forward windows costs O(pool * log stream) in
   total, not that much per window. *)

let stream_inc = 0x2B7E151628AED2A5

(* One step moves an element's stream state on by one draw; [skip m r] is
   the member index after [m] (-1 before the first; the walk then always
   lands on 0 first) for the draw [r] in [1, 2^32], or [max_index] meaning
   "past any usable cell". *)
let advance s = Prng.mix_int (s + stream_inc)
let[@inline] draw s = ((s lsr 15) land 0xFFFF_FFFF) + 1

let max_t = float_of_int (max_index * (max_index + 1))

(* t = (m+1)(m+2) 2^32 / r: every integer here is below 2^53, so the one
   rounded quantity is a correctly rounded quotient, the same on both
   sides of the wire. *)
let[@inline] ratio m r = float_of_int ((m + 1) * (m + 2)) *. 4294967296.0 /. float_of_int r

(* The reference: the least j > m with (j+1)(j+2) >= t. That j is
   ceil(sqrt(t + 1/4) - 3/2), which [sqrt t - 1/2] truncates to all but
   always; the two loops make it exact from any start. *)
let skip_float m r =
  let t = ratio m r in
  if t <= 1.0 then m + 1
  else if t > max_t then max_index
  else begin
    let j = ref (int_of_float (Float.sqrt t -. 0.5)) in
    if !j > max_index - 1 then j := max_index - 1;
    if !j < m + 1 then j := m + 1;
    while float_of_int ((!j + 1) * (!j + 2)) < t do
      incr j
    done;
    while !j > m + 1 && float_of_int (!j * (!j + 1)) >= t do
      decr j
    done;
    !j
  end

(* The dense prefix, exactly. For m < [table_members], the next member is
   at most k (m < k <= [table_cells]) exactly when r >= T(m, k), the least
   such draw: t falls as r grows (a correctly rounded quotient is monotone
   in its divisor), so T(m, k) is ceil((m+1)(m+2) 2^32 / ((k+1)(k+2))),
   checked one draw either side against [ratio]. Row m + 1 holds T(m, .)
   as host-order u32s, with 0 past [table_cells] so a scan always stops
   there; [guide] holds, per row and per top byte of r - 1, the member at
   that bucket's largest draw, where a scan may start. About 25 KB, built
   in about 0.1 ms. *)
let table_members = 32
let table_cells = 126
let row_width = table_cells + 2

let[@inline] threshold thr row k =
  Int32.to_int (Buf.unsafe_get_int32_ne thr (((row * row_width) + k) * 4)) land check_mask

let thresholds, guide =
  let thr = Bytes.make ((table_members + 1) * row_width * 4) '\000' in
  let guide = Bytes.create ((table_members + 1) * 256) in
  for m = -1 to table_members - 1 do
    let row = m + 1 in
    for k = m + 1 to table_cells do
      let p = (k + 1) * (k + 2) in
      let t = ref (((((m + 1) * (m + 2)) lsl 32) + p - 1) / p) in
      while !t > 1 && ratio m (!t - 1) <= float_of_int p do
        decr t
      done;
      while !t > 0 && ratio m !t > float_of_int p do
        incr t
      done;
      Bytes.set_int32_ne thr (((row * row_width) + k) * 4) (Int32.of_int !t)
    done;
    let k = ref (m + 1) in
    for b = 255 downto 0 do
      while !k <= table_cells && (b + 1) lsl 24 < threshold thr row !k do
        incr k
      done;
      Bytes.set_uint8 guide ((row lsl 8) + b) !k
    done
  done;
  (thr, guide)

let skip m r =
  if m < table_members then begin
    let row = m + 1 in
    let j = ref (Char.code (Bytes.unsafe_get guide ((row lsl 8) lor ((r - 1) lsr 24)))) in
    while r < threshold thresholds row !j do
      incr j
    done;
    if !j <= table_cells then !j else skip_float m r
  end
  else skip_float m r

(* ---- The one cell writer. ----

   A set of walking keys: a party's pool, or one sign of the receiver's
   peeled keys. Per key its 8-byte little-endian encoding (host-order
   words XOR as the wire bytes do), its checksum, and its cursor: the
   first member index at or past the end of the last range written and
   the stream state that drew it ((-1, stream start) before the first
   draw). *)

type walks = {
  mutable n : int;
  mutable keys : Bytes.t;
  mutable csum : int array;
  mutable cur_m : int array;
  mutable cur_s : int array;
}

let walks n =
  { n; keys = Bytes.create (8 * n); csum = Array.make n 0; cur_m = Array.make n (-1);
    cur_s = Array.make n 0 }

external swap32 : int32 -> int32 = "%bswap_int32"

let[@inline] get32_le b off =
  if Sys.big_endian then swap32 (Buf.unsafe_get_int32_ne b off) else Buf.unsafe_get_int32_ne b off

let[@inline] set32_le b off v =
  if Sys.big_endian then Buf.unsafe_set_int32_ne b off (swap32 v)
  else Buf.unsafe_set_int32_ne b off v

(* Three word updates: [sign] onto the count, the key and its checksum
   XORed in. *)
let[@inline] update buf o sign key cs =
  set32_le buf o (Int32.add (get32_le buf o) sign);
  Buf.unsafe_set_int64_ne buf (o + 4) (Int64.logxor (Buf.unsafe_get_int64_ne buf (o + 4)) key);
  set32_le buf (o + 12) (Int32.logxor (get32_le buf (o + 12)) cs)

let[@inline] is_zero buf o =
  Buf.unsafe_get_int64_ne buf o = 0L && Buf.unsafe_get_int64_ne buf (o + 8) = 0L

(* Write every key of [w], with [sign], into the cells [lo, hi) held from
   byte [off] of [buf]: each walk resumes at its cursor, skips members
   below [lo] and stops at its first member at or past [hi]. Returns the
   steps walked. *)
let write w ~sign ~lo ~hi buf off =
  if off < 0 || hi < lo || off + ((hi - lo) * cell_bytes) > Bytes.length buf then
    invalid_arg "Rateless.write: range outside the buffer";
  let sign = Int32.of_int sign in
  let steps = ref 0 in
  for e = 0 to w.n - 1 do
    let key = Buf.unsafe_get_int64_ne w.keys (e * 8) and cs = Int32.of_int w.csum.(e) in
    let m = ref w.cur_m.(e) and s = ref w.cur_s.(e) in
    while !m < hi do
      if !m >= lo then update buf (off + ((!m - lo) * cell_bytes)) sign key cs;
      s := advance !s;
      m := skip !m (draw !s);
      incr steps
    done;
    w.cur_m.(e) <- !m;
    w.cur_s.(e) <- !s
  done;
  !steps

(* ---- Sender side. ---- *)

type source = { w : walks; stream0 : int array; mutable frontier : int }

(* Key [v] into entry [e] of [w]: its encoding, checksum and the stream
   state its walk starts from. *)
let set_key fn lanes w e v =
  Buf.set_int_le w.keys (e * 8) v;
  Hashing.hash_int_bytes_into fn v ~len:8 lanes;
  w.cur_s.(e) <- lanes.(1);
  w.csum.(e) <- Hashing.mix_pair lanes.(0) lanes.(1) land check_mask

let source_of_ints ~seed ints =
  let n = Array.length ints in
  let fn = Hashing.make ~seed ~tag:hash_tag in
  let lanes = [| 0; 0 |] in
  let w = walks n in
  Array.iteri
    (fun e v ->
      if v < 0 then invalid_arg "Rateless.source_of_ints: negative key";
      set_key fn lanes w e v)
    ints;
  { w; stream0 = Array.copy w.cur_s; frontier = 0 }

(* Write the pool into cells [lo, hi) of [buf] from byte [off]. A range
   starting below the frontier rewinds every walk to its start. *)
let gen src ~sign ~lo ~hi buf off =
  if hi > lo && src.w.n > 0 then begin
    if lo < src.frontier then begin
      Array.fill src.w.cur_m 0 src.w.n (-1);
      Array.blit src.stream0 0 src.w.cur_s 0 src.w.n
    end;
    Metrics.add m_walk_steps (write src.w ~sign ~lo ~hi buf off);
    src.frontier <- hi
  end

let cells src ~lo ~hi =
  if lo < 0 || hi < lo || hi > max_index then invalid_arg "Rateless.cells: bad range";
  let buf = Bytes.make ((hi - lo) * cell_bytes) '\000' in
  gen src ~sign:1 ~lo ~hi buf 0;
  buf

let member src ~key_index i =
  if key_index < 0 || key_index >= src.w.n then invalid_arg "Rateless.member: bad element";
  if i < 0 || i >= max_index then invalid_arg "Rateless.member: bad index";
  let m = ref (-1) and s = ref src.stream0.(key_index) in
  while !m < i do
    s := advance !s;
    m := skip !m (draw !s)
  done;
  !m = i

let walk_int ~seed =
  let fn = Hashing.make ~seed ~tag:hash_tag in
  let lanes = [| 0; 0 |] in
  fun v ->
    if v < 0 then invalid_arg "Rateless.walk_int: negative key";
    Hashing.hash_int_bytes_into fn v ~len:8 lanes;
    Seq.unfold
      (fun (m, s) ->
        let s = advance s in
        let m = skip m (draw s) in
        if m >= max_index then None else Some (m, (m, s)))
      (-1, lanes.(1))

(* ---- Cells held by the caller. ----

   Counts add and the other words XOR, so a prefix of the stream follows
   its pool key by key: one signed walk per added or removed key, through
   the same writer. *)

type writer = { wfn : Hashing.fn; one : walks; wlanes : int array }

let writer ~seed = { wfn = Hashing.make ~seed ~tag:hash_tag; one = walks 1; wlanes = [| 0; 0 |] }

let write_int wr ~sign v ~lo ~hi buf =
  if v < 0 then invalid_arg "Rateless.write_int: negative key";
  if (sign <> 1 && sign <> -1) || lo < 0 || hi > max_index then
    invalid_arg "Rateless.write_int: bad sign or range";
  set_key wr.wfn wr.wlanes wr.one 0 v;
  wr.one.cur_m.(0) <- -1;
  Metrics.add m_walk_steps (write wr.one ~sign ~lo ~hi buf 0)

let subtract dst src ~off =
  let len = Bytes.length dst in
  if len mod cell_bytes <> 0 || off < 0 || off + len > Bytes.length src then
    invalid_arg "Rateless.subtract: range outside the buffers";
  let d = ref 0 in
  while !d < len do
    let o = !d and s = off + !d in
    set32_le dst o (Int32.sub (get32_le dst o) (get32_le src s));
    Buf.unsafe_set_int64_ne dst (o + 4)
      (Int64.logxor (Buf.unsafe_get_int64_ne dst (o + 4)) (Buf.unsafe_get_int64_ne src (s + 4)));
    set32_le dst (o + 12) (Int32.logxor (get32_le dst (o + 12)) (get32_le src (s + 12)));
    d := o + cell_bytes
  done

(* ---- Receiver. ----

   The store holds the absorbed cells in stream order, one run of slots
   per gap-free stretch of indices (a gap-free stream is one run). A
   stalled peel keeps its stuck cells live in the store, and every fresh
   cell is another chance to unstick it. *)

type decoder = {
  pool : source;
  fn : Hashing.fn;
  pos : walks;  (* peeled remote-only keys, in peel order *)
  neg : walks;  (* peeled local-only keys *)
  mutable store : Bytes.t;
  mutable nslots : int;
  mutable run_lo : int array;  (* first stream index of each run *)
  mutable run_slot : int array;  (* its first slot *)
  mutable nruns : int;
  mutable nonzero : int;  (* slots not identically zero *)
  mutable queue : int list;  (* candidate slots awaiting a purity check *)
  key : Bytes.t;  (* the key being peeled *)
  lanes : int array;
}

let decoder_of_ints ~seed ints =
  {
    pool = source_of_ints ~seed ints;
    fn = Hashing.make ~seed ~tag:hash_tag;
    pos = walks 0;
    neg = walks 0;
    store = Bytes.empty;
    nslots = 0;
    run_lo = [||];
    run_slot = [||];
    nruns = 0;
    nonzero = 0;
    queue = [];
    key = Bytes.create 8;
    lanes = [| 0; 0 |];
  }

let absorbed dec = dec.nslots
let peeled dec = dec.pos.n + dec.neg.n

let run_end dec r =
  let next_slot = if r + 1 < dec.nruns then dec.run_slot.(r + 1) else dec.nslots in
  dec.run_lo.(r) + next_slot - dec.run_slot.(r)

let next_index dec = if dec.nruns = 0 then 0 else run_end dec (dec.nruns - 1)

let widen a cap = Array.append a (Array.make (cap - Array.length a) 0)

(* The slot of absorbed index [i], or -1. A walk asks in increasing order
   and keeps in [r] the last run it was in: a member past that run's end
   finds its run by binary search over the later ones. *)
let slot_of dec r i =
  if i >= run_end dec !r then begin
    let lo = ref (!r + 1) and hi = ref dec.nruns in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if dec.run_lo.(mid) <= i then lo := mid + 1 else hi := mid
    done;
    r := !lo - 1
  end;
  if i >= dec.run_lo.(!r) && i < run_end dec !r then dec.run_slot.(!r) + i - dec.run_lo.(!r) else -1

(* Add a peeled key to [w] and cancel it, with [sign], out of every
   absorbed cell, tracking each touched cell's zero state and purity. *)
let cancel dec w ~sign ~s0 ~cs =
  let e = w.n in
  if e = Array.length w.csum then begin
    let cap = max 8 (2 * e) in
    w.keys <- Bytes.extend w.keys 0 (8 * (cap - e));
    w.csum <- widen w.csum cap;
    w.cur_m <- widen w.cur_m cap;
    w.cur_s <- widen w.cur_s cap
  end;
  Bytes.blit dec.key 0 w.keys (e * 8) 8;
  w.csum.(e) <- cs;
  w.n <- e + 1;
  let stop = next_index dec and key = Buf.unsafe_get_int64_ne dec.key 0 in
  let sign32 = Int32.of_int sign and cs32 = Int32.of_int cs in
  let m = ref (-1) and s = ref s0 and r = ref 0 and steps = ref 0 in
  while !m < stop do
    (if !m >= 0 then
       let slot = slot_of dec r !m in
       if slot >= 0 then begin
         let o = slot * cell_bytes in
         let z0 = is_zero dec.store o in
         update dec.store o sign32 key cs32;
         if is_zero dec.store o then begin
           if not z0 then dec.nonzero <- dec.nonzero - 1
         end
         else begin
           if z0 then dec.nonzero <- dec.nonzero + 1;
           let cnt = get32_le dec.store o in
           if cnt = 1l || cnt = -1l then dec.queue <- slot :: dec.queue
         end
       end);
    s := advance !s;
    m := skip !m (draw !s);
    incr steps
  done;
  w.cur_m.(e) <- !m;
  w.cur_s.(e) <- !s;
  Metrics.add m_key_walk_steps !steps

(* A genuine peel zeroes a distinct absorbed slot per key, so the peels
   never outnumber the absorbed slots. Crafted cells can hand one key back
   and forth between its member cells with alternating signs for ever;
   past that bound the decoder stops and stays stuck until more cells
   arrive, each of which raises the bound by one. *)
let rec peel dec =
  match dec.queue with
  | [] -> ()
  | _ when peeled dec >= dec.nslots -> dec.queue <- []
  | slot :: rest ->
    dec.queue <- rest;
    let o = slot * cell_bytes in
    let cnt = Int32.to_int (get32_le dec.store o) in
    if cnt = 1 || cnt = -1 then begin
      Bytes.blit dec.store (o + 4) dec.key 0 8;
      Hashing.hash_bytes_into dec.fn dec.key dec.lanes;
      let cs = Hashing.mix_pair dec.lanes.(0) dec.lanes.(1) land check_mask in
      if Int32.to_int (get32_le dec.store (o + 12)) land check_mask = cs then begin
        Metrics.incr m_peeled;
        (* Removing the key from every member cell zeroes this slot too —
           its index is on the key's walk (false-pure keys excepted, which
           leave residue the caller's whole-set hash will refuse). *)
        cancel dec (if cnt > 0 then dec.pos else dec.neg) ~sign:(-cnt) ~s0:dec.lanes.(1) ~cs
      end
    end;
    peel dec

let absorb dec ~lo bytes =
  if lo < 0 then invalid_arg "Rateless.absorb: negative index";
  if Bytes.length bytes mod cell_bytes <> 0 then invalid_arg "Rateless.absorb: misaligned window";
  let next = next_index dec in
  let start = max lo next and stop = min (lo + (Bytes.length bytes / cell_bytes)) max_index in
  if start >= stop then 0
  else begin
    let fresh = stop - start and base = dec.nslots in
    if dec.nonzero > 0 || base = 0 then Metrics.add m_cells_useful fresh;
    let have = Bytes.length dec.store in
    if have < (base + fresh) * cell_bytes then
      dec.store <- Bytes.extend dec.store 0 (max (((base + fresh) * cell_bytes) - have) have);
    Bytes.blit bytes ((start - lo) * cell_bytes) dec.store (base * cell_bytes) (fresh * cell_bytes);
    if start > next || dec.nruns = 0 then begin
      if dec.nruns = Array.length dec.run_lo then begin
        dec.run_lo <- widen dec.run_lo (max 4 (2 * dec.nruns));
        dec.run_slot <- widen dec.run_slot (max 4 (2 * dec.nruns))
      end;
      dec.run_lo.(dec.nruns) <- start;
      dec.run_slot.(dec.nruns) <- base;
      dec.nruns <- dec.nruns + 1
    end;
    dec.nslots <- base + fresh;
    (* Late cells still contain every key peeled before they arrived. *)
    let off = base * cell_bytes in
    gen dec.pool ~sign:(-1) ~lo:start ~hi:stop dec.store off;
    Metrics.add m_key_walk_steps
      (write dec.pos ~sign:(-1) ~lo:start ~hi:stop dec.store off
      + write dec.neg ~sign:1 ~lo:start ~hi:stop dec.store off);
    for slot = base to dec.nslots - 1 do
      if not (is_zero dec.store (slot * cell_bytes)) then begin
        dec.nonzero <- dec.nonzero + 1;
        dec.queue <- slot :: dec.queue
      end
    done;
    peel dec;
    fresh
  end

let ints_of w =
  let rec go acc e =
    if e < 0 then Some acc
    else
      match Buf.get_int_le_opt w.keys (e * 8) with
      | Some v when v >= 0 -> go (v :: acc) (e - 1)
      | _ ->
        Metrics.incr m_bad_int_keys;
        None
  in
  go [] (w.n - 1)

let decoded_ints dec =
  if dec.nslots = 0 || dec.nonzero > 0 then None
  else
    match (ints_of dec.pos, ints_of dec.neg) with
    | Some pos, Some neg -> Some (pos, neg)
    | _ -> None
