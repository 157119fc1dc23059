(* Slicing-by-8 (Intel's eight-table CRC): table [k] advances a byte's
   contribution past [k] further zero bytes, so one step folds eight
   message bytes into the register with eight independent lookups instead
   of eight dependent ones. Table 0 is the classic byte-wise table, which
   also finishes the 0-7 byte tail. The register and the tables are
   native ints holding 32-bit values, so the loop allocates nothing. *)
let tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let prev = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
       done
     done;
     t)

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external swap32 : int32 -> int32 = "%bswap_int32"

let[@inline] le32 b off =
  let v = get32u b off in
  Int32.to_int (if Sys.big_endian then swap32 v else v) land 0xFFFF_FFFF

(* Entry [byte] of table [k]. Every call below passes a byte, so the
   index is in range. *)
let[@inline] at t k byte = Array.unsafe_get t ((k * 256) + byte)

let digest_sub bytes ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length bytes then
    invalid_arg "Crc32.digest_sub: range outside buffer";
  let t = Lazy.force tables in
  let crc = ref 0xFFFF_FFFF in
  for blk = 0 to (len / 8) - 1 do
    let off = pos + (8 * blk) in
    let lo = !crc lxor le32 bytes off and hi = le32 bytes (off + 4) in
    crc :=
      at t 7 (lo land 0xFF)
      lxor at t 6 ((lo lsr 8) land 0xFF)
      lxor at t 5 ((lo lsr 16) land 0xFF)
      lxor at t 4 (lo lsr 24)
      lxor at t 3 (hi land 0xFF)
      lxor at t 2 ((hi lsr 8) land 0xFF)
      lxor at t 1 ((hi lsr 16) land 0xFF)
      lxor at t 0 (hi lsr 24)
  done;
  for i = pos + (len / 8 * 8) to pos + len - 1 do
    crc := at t 0 ((!crc lxor Char.code (Bytes.unsafe_get bytes i)) land 0xFF) lxor (!crc lsr 8)
  done;
  Int32.of_int (!crc lxor 0xFFFF_FFFF)

let digest bytes = digest_sub bytes ~pos:0 ~len:(Bytes.length bytes)
