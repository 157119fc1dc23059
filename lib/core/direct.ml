module Iset = Ssr_util.Iset
module Bits = Ssr_util.Bits

type config = { u : int; h : int }

type mode = Bitmap | Element_list

let check cfg =
  if cfg.u < 1 then invalid_arg "Direct: universe must be positive";
  if cfg.h < 0 then invalid_arg "Direct: negative h"

(* Bytes per element in list mode; the all-ones pattern is the padding
   sentinel, so elements must stay strictly below it. *)
let elt_width cfg =
  let w = Bits.ceil_div (Bits.bits_needed cfg.u) 8 in
  (* Avoid the sentinel clashing with the largest element (u = 2^{8w}). *)
  if 8 * w < 62 && cfg.u >= 1 lsl (8 * w) then w + 1 else w

(* Overflow-safe ceil(u / 8): u can approach max_int. *)
let bitmap_length cfg = ((cfg.u - 1) / 8) + 1

let list_length cfg = cfg.h * elt_width cfg

let mode cfg =
  check cfg;
  if bitmap_length cfg <= list_length cfg then Bitmap else Element_list

let key_length cfg =
  check cfg;
  min (bitmap_length cfg) (list_length cfg)

(* Write [child]'s encoding over the whole of [out]. *)
let fill cfg mode child out =
  if Iset.cardinal child > cfg.h then invalid_arg "Direct.encode: child larger than h";
  if not (Iset.is_empty child || (Iset.min_elt child >= 0 && Iset.max_elt child < cfg.u)) then
    invalid_arg "Direct.encode: element outside universe";
  match mode with
  | Bitmap ->
    Bytes.fill out 0 (Bytes.length out) '\000';
    Iset.iter
      (fun x ->
        let byte = x / 8 and bit = x mod 8 in
        Bytes.set out byte (Char.chr (Char.code (Bytes.get out byte) lor (1 lsl bit))))
      child
  | Element_list ->
    let w = elt_width cfg in
    Bytes.fill out 0 (Bytes.length out) '\xFF';
    ignore
      (Iset.fold
         (fun x slot ->
           for i = 0 to w - 1 do
             Bytes.set out ((slot * w) + i) (Char.chr ((x lsr (8 * i)) land 0xFF))
           done;
           slot + 1)
         child 0)

let encode cfg child =
  let out = Bytes.create (key_length cfg) in
  fill cfg (mode cfg) child out;
  out

let encoder cfg =
  let mode = mode cfg and buf = Bytes.create (key_length cfg) in
  fun child ->
    fill cfg mode child buf;
    buf

let fold cfg =
  let mode = mode cfg in
  Key_fold.make ~key_len:(key_length cfg) (fun buf child ->
      fill cfg mode child buf;
      buf)

let decode cfg bytes =
  check cfg;
  if Bytes.length bytes <> key_length cfg then None
  else
    match mode cfg with
    | Bitmap ->
      let elts = ref [] in
      let ok = ref true in
      for byte = 0 to bitmap_length cfg - 1 do
        let v = Char.code (Bytes.get bytes byte) in
        for bit = 0 to 7 do
          if v land (1 lsl bit) <> 0 then begin
            let x = (byte * 8) + bit in
            if x >= cfg.u then ok := false else elts := x :: !elts
          end
        done
      done;
      let set = Iset.of_list !elts in
      if !ok && Iset.cardinal set <= cfg.h then Some set else None
    | Element_list ->
      let w = elt_width cfg in
      let sentinel = (1 lsl (8 * w)) - 1 in
      let read slot =
        let v = ref 0 in
        for i = w - 1 downto 0 do
          v := (!v lsl 8) lor Char.code (Bytes.get bytes ((slot * w) + i))
        done;
        !v
      in
      let rec go slot acc =
        if slot >= cfg.h then Some (List.rev acc)
        else begin
          let v = read slot in
          if v = sentinel then
            (* The remainder must be all padding. *)
            let rec all_pad s = s >= cfg.h || (read s = sentinel && all_pad (s + 1)) in
            if all_pad slot then Some (List.rev acc) else None
          else if v >= cfg.u then None
          else
            match acc with
            | prev :: _ when prev >= v -> None (* must be strictly increasing *)
            | _ -> go (slot + 1) (v :: acc)
        end
      in
      Option.map Iset.of_list (go 0 [])
