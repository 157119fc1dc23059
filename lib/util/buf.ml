let set_int_le b off v = Bytes.set_int64_le b off (Int64.of_int v)

let get_int_le b off =
  let v = Bytes.get_int64_le b off in
  let i = Int64.to_int v in
  if Int64.of_int i <> v then failwith "Buf.get_int_le: value exceeds native int";
  i

(* Total variant for untrusted bytes: a wire-supplied 64-bit word whose value
   does not survive the round trip through a native 63-bit int (i.e. whose
   top two bits disagree) is data damage, not a programming error, so it
   yields [None] — as does an out-of-range offset. *)
let get_int_le_opt b off =
  if off < 0 || off + 8 > Bytes.length b then None
  else begin
    let v = Bytes.get_int64_le b off in
    let i = Int64.to_int v in
    if Int64.of_int i <> v then None else Some i
  end

let xor_into ~dst src =
  let len = Bytes.length dst in
  if Bytes.length src <> len then invalid_arg "Buf.xor_into: length mismatch";
  let words = len / 8 in
  for w = 0 to words - 1 do
    let off = w * 8 in
    Bytes.set_int64_le dst off (Int64.logxor (Bytes.get_int64_le dst off) (Bytes.get_int64_le src off))
  done;
  for i = words * 8 to len - 1 do
    Bytes.unsafe_set dst i
      (Char.chr (Char.code (Bytes.unsafe_get dst i) lxor Char.code (Bytes.unsafe_get src i)))
  done

let xor_key_into ~dst ~pos src =
  let len = Bytes.length src in
  if pos < 0 || pos + len > Bytes.length dst then invalid_arg "Buf.xor_key_into: out of bounds";
  let words = len / 8 in
  for w = 0 to words - 1 do
    let off = pos + (w * 8) in
    Bytes.set_int64_le dst off
      (Int64.logxor (Bytes.get_int64_le dst off) (Bytes.get_int64_le src (w * 8)))
  done;
  for i = words * 8 to len - 1 do
    Bytes.unsafe_set dst (pos + i)
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get dst (pos + i)) lxor Char.code (Bytes.unsafe_get src i)))
  done

(* Native-endian unchecked word accessors. Declared as externals (here and
   in the interface) so call sites compile to single load/store
   instructions. Callers own two obligations: bounds, and — since these are
   native-endian while every wire field is little-endian — byte-swapping
   numbers on big-endian hardware. *)
external unsafe_get_int16_ne : Bytes.t -> int -> int = "%caml_bytes_get16u"
external unsafe_set_int16_ne : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external unsafe_get_int32_ne : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external unsafe_set_int32_ne : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external unsafe_get_int64_ne : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external unsafe_set_int64_ne : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let xor_region_into ~dst ~dst_pos src ~src_pos ~len =
  if
    len < 0 || dst_pos < 0 || src_pos < 0
    || dst_pos + len > Bytes.length dst
    || src_pos + len > Bytes.length src
  then invalid_arg "Buf.xor_region_into: out of bounds";
  let words = len / 8 in
  for w = 0 to words - 1 do
    let off = w * 8 in
    Bytes.set_int64_le dst (dst_pos + off)
      (Int64.logxor (Bytes.get_int64_le dst (dst_pos + off)) (Bytes.get_int64_le src (src_pos + off)))
  done;
  for i = words * 8 to len - 1 do
    Bytes.unsafe_set dst (dst_pos + i)
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get dst (dst_pos + i))
         lxor Char.code (Bytes.unsafe_get src (src_pos + i))))
  done

let is_zero b =
  let len = Bytes.length b in
  let words = len / 8 in
  let rec go_words w =
    w >= words || (Int64.equal (Bytes.get_int64_le b (w * 8)) 0L && go_words (w + 1))
  in
  let rec go_tail i = i >= len || (Bytes.unsafe_get b i = '\000' && go_tail (i + 1)) in
  go_words 0 && go_tail (words * 8)

let append_all parts =
  let total = List.fold_left (fun acc b -> acc + Bytes.length b) 0 parts in
  let out = Bytes.create total in
  let off = ref 0 in
  List.iter
    (fun b ->
      Bytes.blit b 0 out !off (Bytes.length b);
      off := !off + Bytes.length b)
    parts;
  out

let of_int_list xs =
  let out = Bytes.create (8 * List.length xs) in
  List.iteri (fun i x -> set_int_le out (i * 8) x) xs;
  out
