(** Non-raising cursor reads over untrusted bytes.

    Everything that arrives off a channel — frame payloads, serialized IBLT
    bodies, estimators, CPI evaluations — is parsed through this module so
    that truncated or corrupted input surfaces as [None], never as an
    exception. A reader is a byte buffer plus a cursor; every read checks
    bounds and value ranges before committing. *)

type reader

val reader : Bytes.t -> reader
(** A fresh cursor at offset 0. The buffer is not copied. *)

val remaining : reader -> int

val at_end : reader -> bool
(** All bytes consumed; parsers should require this to reject trailing
    garbage. *)

val take : reader -> int -> Bytes.t option
(** Next [len] bytes as a fresh buffer, or [None] if fewer remain (or
    [len < 0]). *)

val u8 : reader -> int option
val u32 : reader -> int option
(** 4-byte little-endian unsigned. *)

val int62 : reader -> int option
(** 8-byte little-endian that must be a non-negative 62-bit value (the range
    of this library's hashes and elements); [None] otherwise. *)
