(** Session-protocol wire messages between a reconciliation client and
    the server.

    Every packet carries its shard and session id in a fixed header, so
    the server can group a batch of raw packets by shard before any
    per-shard work starts — the grouping is a pure function of the
    bytes. All integers are little-endian; keys, versions and hashes
    travel as 8-byte fields holding non-negative 62/63-bit values.

    {!decode_opt} is total on arbitrary bytes: every length is validated
    against the exact packet size before any field is read, claimed cell
    counts must match the bytes actually present, and enumerated fields
    (message tag, flags) must hold known values — no exception escapes,
    hostile input yields [None]. *)

type msg =
  | Req of { l0 : Bytes.t }
      (** Open a session: the client's serialized L0 estimator (members
          on side [S2], built with the shard's [l0_seed]). *)
  | Reject of { retry_after_us : int }
      (** Backpressure: the shard is at capacity; retry the [Req] after
          this much virtual time. *)
  | Sketch of { version : int; n : int; xor_hash : int; lo : int; body : Bytes.t }
      (** A window of the session's pinned prefix: [body] holds the
          packed rateless cells [\[lo, lo + count)], 16 bytes each, and
          the snapshot's version, cardinality and XOR hash come with it
          for verification. On the wire the count precedes the body and
          must match its length; [lo + count] must not pass
          {!Ssr_sketch.Rateless.max_index}. *)
  | More of { have : int }
      (** The client absorbed the prefix [\[0, have)] without a verified
          decode: send the next window, from [have]. *)
  | Done of { ok : bool }  (** Client finished (or gave up); close the session. *)
  | Fin of { ok : bool }  (** Server confirms the session is closed. *)
  | Mutate of { add : bool; key : int }  (** Write-path ingest of one mutation. *)
  | Mut_ack of { version : int }  (** Mutation applied (or was a no-op) at this version. *)

type packet = { shard : int; session : int; msg : msg }

val encode : packet -> Bytes.t
(** Raises [Invalid_argument] when a field is out of range for its wire
    width (shard beyond 16 bits, session beyond 32, negative key, ...). *)

val decode_opt : Bytes.t -> packet option
(** Total parse of untrusted bytes; [None] on any malformation. *)
