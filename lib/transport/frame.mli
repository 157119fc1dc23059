(** Length-prefixed, checksummed message framing.

    Every message a protocol puts on a faulty channel is wrapped in a frame:

    {v
      +---------+-------------------+---------+--------------+
      | version | payload length    | payload | CRC-32       |
      | 1 byte  | 4 bytes LE (u32)  | n bytes | 4 bytes LE   |
      +---------+-------------------+---------+--------------+
    v}

    The CRC covers the version byte, the length field and the payload, so a
    corrupted length cannot redirect the checksum window. {!decode} never
    raises: a damaged frame comes back as a typed error, and a frame that
    passes the check yields exactly the bytes that were encoded. The CRC
    detects every single-bit error and all but a 2^-32 fraction of random
    multi-bit damage; the reconciliation layer's whole-set hash is the second
    line of defence behind it. *)

val overhead_bytes : int
(** Framing bytes added per message: 1 (version) + 4 (length) + 4 (CRC). *)

type error =
  | Truncated of { expected : int; got : int }
      (** Fewer bytes than the header, or than the header-declared total. *)
  | Bad_version of int  (** Unknown version byte. *)
  | Length_mismatch of { declared : int; available : int }
      (** The declared payload length does not match the bytes present. *)
  | Crc_mismatch of { expected : int32; got : int32 }
      (** Header and payload bytes fail the trailing checksum. *)

val encode : Bytes.t -> Bytes.t
(** Wrap a payload in a frame. The result is a fresh buffer. *)

val decode : Bytes.t -> (Bytes.t, error) result
(** Unwrap a frame. Total: any input, including truncated, resized or
    bit-flipped frames, yields [Ok payload] or a typed [Error] — never an
    exception. *)

val error_to_string : error -> string
