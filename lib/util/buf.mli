(** Byte-buffer primitives for sketch serialization.

    IBLT cells XOR fixed-width keys together; protocols serialize sketches to
    count communication honestly. This module provides the little-endian
    integer encodings and in-place XOR used for both. *)

val set_int_le : Bytes.t -> int -> int -> unit
(** Write a native int (as a 64-bit little-endian word). *)

val get_int_le : Bytes.t -> int -> int
(** Read a native int written by {!set_int_le}. Raises [Failure] if the
    stored value does not fit in a native 63-bit int. For bytes of wire
    origin use {!get_int_le_opt}: this raising variant is for values this
    process wrote itself. *)

val get_int_le_opt : Bytes.t -> int -> int option
(** Total {!get_int_le} for untrusted bytes: [None] when the offset is out
    of range or the stored 64-bit value exceeds the native 63-bit int range,
    never an exception. Every parser reachable from received frames decodes
    integers through this. *)

val xor_into : dst:Bytes.t -> Bytes.t -> unit
(** [xor_into ~dst src] XORs [src] into [dst] in place. The buffers must
    have equal length. *)

val xor_key_into : dst:Bytes.t -> pos:int -> Bytes.t -> unit
(** [xor_key_into ~dst ~pos src] XORs all of [src] into [dst] starting at
    byte offset [pos], 8 bytes at a time. This is the IBLT cell-update
    primitive: keys live flattened in one slab, so the XOR must target a
    slice without slicing. Bounds are checked once up front. *)

(** {2 Unchecked native-endian word accessors}

    Declared as externals so cross-module call sites compile to single
    load/store instructions — these back the IBLT packed-cell hot paths.
    No bounds checks, and the byte order is the host's: wire fields are
    little-endian, so a caller that reads or writes a number through these
    byte-swaps when [Sys.big_endian] (as the sketch core's cell updates
    do). XOR of raw bytes needs no swap. *)

external unsafe_get_int16_ne : Bytes.t -> int -> int = "%caml_bytes_get16u"
external unsafe_set_int16_ne : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external unsafe_get_int32_ne : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external unsafe_set_int32_ne : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external unsafe_get_int64_ne : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external unsafe_set_int64_ne : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

val xor_region_into : dst:Bytes.t -> dst_pos:int -> Bytes.t -> src_pos:int -> len:int -> unit
(** [xor_region_into ~dst ~dst_pos src ~src_pos ~len] XORs [len] bytes of
    [src] starting at [src_pos] into [dst] starting at [dst_pos], 8 bytes
    at a time with a byte-wise tail. Bounds are checked once up front.
    Unlike {!xor_key_into} the source is also a slice, which is what
    cell-wise table subtraction needs. *)

val is_zero : Bytes.t -> bool
(** Whether every byte is zero (checked a word at a time). *)

val append_all : Bytes.t list -> Bytes.t
(** Concatenate. *)

val of_int_list : int list -> Bytes.t
(** Fixed-width (8 bytes each) encoding of a list of ints; used to hash
    canonical forms of sets. *)
