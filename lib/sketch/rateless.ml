module Prng = Ssr_util.Prng
module Hashing = Ssr_util.Hashing
module Buf = Ssr_util.Buf
module Metrics = Ssr_obs.Metrics

let m_cells_useful = Metrics.counter "rateless.cells_useful"
let m_peeled = Metrics.counter "rateless.peeled"
let m_bad_int_keys = Metrics.counter "rateless.bad_int_keys"
let m_walk_steps = Metrics.counter "rateless.walk_steps"

type params = { key_len : int; seed : int64 }

let hash_tag = 0x7A7E

(* Keeps every product in the skip arithmetic below 2^53, so the float
   evaluation of the inverse CDF is exact where it has to be. *)
let max_index = 1 lsl 26

let check_bytes_of_bits = function
  | 8 -> 1
  | 16 -> 2
  | 32 -> 4
  | 62 -> 8
  | _ -> invalid_arg "Rateless: check_bits must be 8, 16, 32 or 62"

let cell_bytes ?(check_bits = 32) ~key_len () = 4 + key_len + check_bytes_of_bits check_bits

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
   tests. A source keeps each element's walk where the last window left
   it (see [gen_into]), so a stream of forward windows costs
   O(pool * log stream) in total, not that much per window. *)

let stream_inc = 0x2B7E151628AED2A5

(* One skip, in two parts so that a walk allocates nothing: [advance]
   moves an element's stream state on by one draw, and [next_member m s]
   is the member index after [m] (-1 before the first; the walk then
   always lands on 0 first) for the freshly advanced state [s], or
   [max_index] meaning "past any usable cell". The float math is exact:
   every integer that reaches a float here is below 2^53, and the one
   rounded quantity [t] is the same on both sides of the wire because both
   derive it from the same draw. *)
let advance s = Prng.mix_int (s + stream_inc)

let max_t = float_of_int (max_index * (max_index + 1))

let next_member m s =
  let r = ((s lsr 15) land 0xFFFF_FFFF) + 1 in
  let t = float_of_int ((m + 1) * (m + 2)) *. 4294967296.0 /. float_of_int r in
  if t <= 1.0 then m + 1
  else if t > max_t then max_index
  else begin
    let j = ref (int_of_float (Float.sqrt t) - 1) in
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

(* ---- Shared packed-cell plumbing (layout identical to Iblt's store:
   count i32 LE | key XOR | checksum XOR LE). Cold-safe accessors: a
   window touches each cell once per member element, O(log) per element,
   so the walk itself, not the cell access, is the cost to keep down. *)

type source = {
  prm : params;
  check_bits : int;
  check_bytes : int;
  check_mask : int;
  cell_bytes : int;
  n : int;
  keys : Bytes.t;  (* n * key_len slab *)
  stream0 : int array;  (* per-element stream seed (lane 2) *)
  csum : int array;  (* per-element checksum, masked *)
  (* The walk cursors: per element, its first member index at or past
     [frontier] and the stream state that drew it ((-1, stream0) before
     the first draw). *)
  cur_m : int array;
  cur_s : int array;
  mutable frontier : int;  (* [hi] of the last window generated *)
}

let source_params src = src.prm
let source_check_bits src = src.check_bits
let source_cell_bytes src = src.cell_bytes

let get_count b off = Int32.to_int (Bytes.get_int32_le b off)
let set_count b off v = Bytes.set_int32_le b off (Int32.of_int v)

let get_check b off = function
  | 1 -> Bytes.get_uint8 b off
  | 2 -> Bytes.get_uint16_le b off
  | 4 -> Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF
  | _ -> Int64.to_int (Bytes.get_int64_le b off) land ((1 lsl 62) - 1)

let xor_check b off cs = function
  | 1 -> Bytes.set_uint8 b off (Bytes.get_uint8 b off lxor cs)
  | 2 -> Bytes.set_uint16_le b off (Bytes.get_uint16_le b off lxor cs)
  | 4 -> Bytes.set_int32_le b off (Int32.logxor (Bytes.get_int32_le b off) (Int32.of_int cs))
  | _ -> Bytes.set_int64_le b off (Int64.logxor (Bytes.get_int64_le b off) (Int64.of_int cs))

let mk_source ?(check_bits = 32) prm ~n ~fill =
  if prm.key_len < 1 then invalid_arg "Rateless: key_len must be >= 1";
  let check_bytes = check_bytes_of_bits check_bits in
  let src =
    {
      prm;
      check_bits;
      check_bytes;
      check_mask = (1 lsl check_bits) - 1;
      cell_bytes = 4 + prm.key_len + check_bytes;
      n;
      keys = Bytes.create (n * prm.key_len);
      stream0 = Array.make n 0;
      csum = Array.make n 0;
      cur_m = Array.make n (-1);
      cur_s = Array.make n 0;
      frontier = 0;
    }
  in
  let fn = Hashing.make ~seed:prm.seed ~tag:hash_tag in
  let lanes = [| 0; 0 |] in
  for e = 0 to n - 1 do
    fill fn e src lanes;
    src.stream0.(e) <- lanes.(1);
    src.cur_s.(e) <- lanes.(1);
    src.csum.(e) <- Hashing.mix_pair lanes.(0) lanes.(1) land src.check_mask
  done;
  src

let source ?check_bits prm keys =
  mk_source ?check_bits prm ~n:(Array.length keys) ~fill:(fun fn e src lanes ->
      let key = keys.(e) in
      if Bytes.length key <> prm.key_len then
        invalid_arg "Rateless.source: key of the wrong width";
      Bytes.blit key 0 src.keys (e * prm.key_len) prm.key_len;
      Hashing.hash_bytes_into fn key lanes)

let source_of_ints ?check_bits ~seed ints =
  let prm = { key_len = 8; seed } in
  mk_source ?check_bits prm ~n:(Array.length ints) ~fill:(fun fn e src lanes ->
      let v = ints.(e) in
      if v < 0 then invalid_arg "Rateless.source_of_ints: negative key";
      Buf.set_int_le src.keys (e * 8) v;
      Hashing.hash_int_bytes_into fn v ~len:8 lanes)

(* XOR every element of the pool into [buf], which represents cells
   [lo, hi), with [lo] at or past the frontier: each element's walk picks
   up at its cursor and leaves it at the first member at or past [hi]. *)
let gen_into src ~lo ~hi buf =
  let cb = src.cell_bytes and kl = src.prm.key_len in
  let steps = ref 0 in
  for e = 0 to src.n - 1 do
    let cs = src.csum.(e) in
    let m = ref src.cur_m.(e) and s = ref src.cur_s.(e) in
    while !m < hi do
      if !m >= lo then begin
        let off = (!m - lo) * cb in
        set_count buf off (get_count buf off + 1);
        Buf.xor_region_into ~dst:buf ~dst_pos:(off + 4) src.keys ~src_pos:(e * kl) ~len:kl;
        xor_check buf (off + 4 + kl) cs src.check_bytes
      end;
      s := advance !s;
      m := next_member !m !s;
      incr steps
    done;
    src.cur_m.(e) <- !m;
    src.cur_s.(e) <- !s
  done;
  Metrics.add m_walk_steps !steps

let cells src ~lo ~hi =
  if lo < 0 || hi < lo || hi > max_index then invalid_arg "Rateless.cells: bad range";
  let buf = Bytes.make ((hi - lo) * src.cell_bytes) '\000' in
  if hi > lo && src.n > 0 then begin
    (* A window starting below the frontier rewinds every walk to its
       start. *)
    if lo < src.frontier then begin
      Array.fill src.cur_m 0 src.n (-1);
      Array.blit src.stream0 0 src.cur_s 0 src.n
    end;
    gen_into src ~lo ~hi buf;
    src.frontier <- hi
  end;
  buf

let member src ~key_index i =
  if key_index < 0 || key_index >= src.n then invalid_arg "Rateless.member: bad element";
  if i < 0 || i >= max_index then invalid_arg "Rateless.member: bad index";
  let m = ref (-1) and s = ref src.stream0.(key_index) in
  while !m < i do
    s := advance !s;
    m := next_member !m !s
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
        let m = next_member m s in
        if m >= max_index then None else Some (m, (m, s)))
      (-1, lanes.(1))

(* ---- Receiver. ----

   The decoder owns a growable packed store of the cells absorbed so far
   (each tagged with its stream index — gaps from lost windows are fine)
   plus the peeled prefix. Absorbing a window folds the local pool in
   (the same generator, subtracted), cancels every already-peeled key out
   of the new cells — late cells still carry contributions of keys peeled
   long ago — and resumes peeling. A stalled peel keeps its stuck cells
   live in the store, and every fresh cell is another chance to unstick
   it. *)

type decoder = {
  src : source;  (* the local pool, foldable into any window *)
  fn : Hashing.fn;
  mutable store : Bytes.t;  (* nslots packed cells *)
  mutable idxs : int array;  (* stream index per slot, strictly increasing *)
  mutable nslots : int;
  mutable nonzero : int;  (* slots not identically zero *)
  mutable pos : Bytes.t list;  (* peeled remote-only keys, reverse order *)
  mutable neg : Bytes.t list;  (* peeled local-only keys *)
  mutable npeeled : int;
  lanes : int array;
  mutable queue : int list;  (* candidate slots awaiting a purity check *)
}

let decoder ?check_bits prm keys =
  let src = source ?check_bits prm keys in
  {
    src;
    fn = Hashing.make ~seed:prm.seed ~tag:hash_tag;
    store = Bytes.create 0;
    idxs = [||];
    nslots = 0;
    nonzero = 0;
    pos = [];
    neg = [];
    npeeled = 0;
    lanes = [| 0; 0 |];
    queue = [];
  }

let decoder_of_ints ?check_bits ~seed ints =
  let src = source_of_ints ?check_bits ~seed ints in
  {
    src;
    fn = Hashing.make ~seed ~tag:hash_tag;
    store = Bytes.create 0;
    idxs = [||];
    nslots = 0;
    nonzero = 0;
    pos = [];
    neg = [];
    npeeled = 0;
    lanes = [| 0; 0 |];
    queue = [];
  }

let absorbed dec = dec.nslots
let peeled dec = dec.npeeled
let next_index dec = if dec.nslots = 0 then 0 else dec.idxs.(dec.nslots - 1) + 1

let ensure dec extra =
  let cb = dec.src.cell_bytes in
  let need = (dec.nslots + extra) * cb in
  if Bytes.length dec.store < need then begin
    let cap = max need (2 * Bytes.length dec.store) in
    let store = Bytes.make cap '\000' in
    Bytes.blit dec.store 0 store 0 (dec.nslots * cb);
    dec.store <- store;
    let idxs = Array.make (cap / cb) 0 in
    Array.blit dec.idxs 0 idxs 0 dec.nslots;
    dec.idxs <- idxs
  end

let slot_is_zero dec slot =
  let cb = dec.src.cell_bytes in
  let off = slot * cb in
  let rec go i = i = cb || (Bytes.get dec.store (off + i) = '\000' && go (i + 1)) in
  go 0

(* Binary search for the slot holding stream index [i], if absorbed. *)
let find_slot dec i =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      let v = dec.idxs.(mid) in
      if v = i then mid else if v < i then go (mid + 1) hi else go lo mid
  in
  go 0 dec.nslots

(* XOR key [e] (with stream state [s0], checksum [cs], peel sign [sign])
   out of every absorbed cell in stream range [start, stop). *)
let cancel_key dec ~start ~stop ~sign key ~s0 ~cs =
  let cb = dec.src.cell_bytes and kl = dec.src.prm.key_len in
  let m = ref (-1) and s = ref s0 in
  while !m < stop do
    (if !m >= start then
       let slot = find_slot dec !m in
       if slot >= 0 then begin
         let z0 = slot_is_zero dec slot in
         let off = slot * cb in
         set_count dec.store off (get_count dec.store off - sign);
         Buf.xor_key_into ~dst:dec.store ~pos:(off + 4) key;
         xor_check dec.store (off + 4 + kl) cs dec.src.check_bytes;
         if slot_is_zero dec slot then begin
           if not z0 then dec.nonzero <- dec.nonzero - 1
         end
         else begin
           if z0 then dec.nonzero <- dec.nonzero + 1;
           let cnt = get_count dec.store off in
           if cnt = 1 || cnt = -1 then dec.queue <- slot :: dec.queue
         end
       end);
    s := advance !s;
    m := next_member !m !s
  done

(* A genuine peel zeroes a distinct absorbed slot per key, so the peels
   never outnumber the absorbed slots. Crafted cells can hand one key back
   and forth between its member cells with alternating signs for ever;
   past that bound the decoder stops and stays stuck until more cells
   arrive, each of which raises the bound by one. *)
let rec peel dec =
  match dec.queue with
  | [] -> ()
  | _ when dec.npeeled >= dec.nslots -> dec.queue <- []
  | slot :: rest ->
    dec.queue <- rest;
    let cb = dec.src.cell_bytes and kl = dec.src.prm.key_len in
    let off = slot * cb in
    let cnt = get_count dec.store off in
    if cnt = 1 || cnt = -1 then begin
      let key = Bytes.sub dec.store (off + 4) kl in
      Hashing.hash_bytes_into dec.fn key dec.lanes;
      let cs = Hashing.mix_pair dec.lanes.(0) dec.lanes.(1) land dec.src.check_mask in
      if get_check dec.store (off + 4 + kl) dec.src.check_bytes = cs then begin
        if cnt > 0 then dec.pos <- key :: dec.pos else dec.neg <- key :: dec.neg;
        dec.npeeled <- dec.npeeled + 1;
        Metrics.incr m_peeled;
        (* Removing the key from every member cell zeroes this slot too —
           its index is on the key's walk (false-pure keys excepted, which
           leave residue the caller's whole-set hash will refuse). *)
        cancel_key dec ~start:0 ~stop:(next_index dec) ~sign:cnt key ~s0:dec.lanes.(1) ~cs
      end
    end;
    peel dec

let absorb dec ~lo bytes =
  let cb = dec.src.cell_bytes in
  if lo < 0 then invalid_arg "Rateless.absorb: negative index";
  if Bytes.length bytes mod cb <> 0 then invalid_arg "Rateless.absorb: misaligned window";
  let m = Bytes.length bytes / cb in
  let start = max lo (next_index dec) in
  let stop = min (lo + m) max_index in
  if start >= stop then 0
  else begin
    let fresh = stop - start in
    if dec.nonzero > 0 || dec.nslots = 0 then Metrics.add m_cells_useful fresh;
    ensure dec fresh;
    let base = dec.nslots in
    let localw = cells dec.src ~lo:start ~hi:stop in
    for i = start to stop - 1 do
      let slot = base + (i - start) in
      let doff = slot * cb and loff = (i - start) * cb in
      Bytes.blit bytes ((i - lo) * cb) dec.store doff cb;
      set_count dec.store doff (get_count dec.store doff - get_count localw loff);
      Buf.xor_region_into ~dst:dec.store ~dst_pos:(doff + 4) localw ~src_pos:(loff + 4)
        ~len:(cb - 4);
      dec.idxs.(slot) <- i
    done;
    dec.nslots <- base + fresh;
    (* Count the fresh slots into [nonzero] before any cancellation, so the
       transition bookkeeping in [cancel_key] stays balanced. *)
    for slot = base to dec.nslots - 1 do
      if not (slot_is_zero dec slot) then dec.nonzero <- dec.nonzero + 1
    done;
    (* Late cells still contain every key peeled before they arrived. *)
    let strip sign key =
      Hashing.hash_bytes_into dec.fn key dec.lanes;
      let cs = Hashing.mix_pair dec.lanes.(0) dec.lanes.(1) land dec.src.check_mask in
      cancel_key dec ~start ~stop ~sign key ~s0:dec.lanes.(1) ~cs
    in
    List.iter (strip 1) dec.pos;
    List.iter (strip (-1)) dec.neg;
    for slot = base to dec.nslots - 1 do
      if not (slot_is_zero dec slot) then dec.queue <- slot :: dec.queue
    done;
    peel dec;
    fresh
  end

let decoded dec =
  if dec.nslots > 0 && dec.nonzero = 0 then Some (List.rev dec.pos, List.rev dec.neg)
  else None

let conv_ints keys =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | key :: rest -> (
      match Buf.get_int_le_opt key 0 with
      | Some v when v >= 0 -> go (v :: acc) rest
      | _ ->
        Metrics.incr m_bad_int_keys;
        None)
  in
  go [] keys

let decoded_ints dec =
  match decoded dec with
  | None -> None
  | Some (pos, neg) -> (
    match (conv_ints pos, conv_ints neg) with
    | Some pos, Some neg -> Some (pos, neg)
    | _ -> None)
