(** Child-set encodings (paper §3.2).

    Algorithms 1 and 2 represent each child set as an (IBLT of the child's
    elements, short pairwise hash of the child) pair, serialized to a fixed
    width so the pair can itself be a key of an outer IBLT. Both parties
    derive the same child IBLT hash functions from the public-coin seed, so
    any two encodings of nearby children can be subtracted and peeled to
    reveal their element-level difference. *)

type config = {
  child_cells : int;  (** Cells of each child IBLT: O(d) in Alg 1, O(2^i) at level i of Alg 2. *)
  child_k : int;  (** Hash functions per child IBLT. *)
  hash_bits : int;  (** Width of the child hash: O(log s) / O(log st). *)
  seed : int64;
}

val child_params : config -> Ssr_sketch.Iblt.params
(** The (public) parameters of every child IBLT under this configuration. *)

val child_table : config -> Ssr_util.Iset.t -> Ssr_sketch.Iblt.t
(** The child IBLT: the child's elements inserted as 8-byte keys. *)

val child_hash : config -> Ssr_util.Iset.t -> int
(** The truncated pairwise-style hash of the child's canonical form.
    [child_hash cfg] derives the hash function once, for many children. *)

val key_length : config -> int
(** Width in bytes of a serialized encoding. *)

val encode : config -> Ssr_util.Iset.t -> Bytes.t
(** [child IBLT body || child hash], of width [key_length]. [encode cfg]
    derives the child-table parameters and the child hash function once:
    a build pass applies it to every child. *)

val decode : config -> Bytes.t -> Ssr_sketch.Iblt.t * int
(** Parse an encoding back into its table and hash. Raises
    [Invalid_argument] on wrong-sized input; use {!decode_opt} for bytes
    that are not known to be well-formed. *)

val decode_opt : config -> Bytes.t -> (Ssr_sketch.Iblt.t * int) option
(** Non-raising {!decode}: [None] on wrong-sized input. This is the entry
    point for untrusted bytes (keys peeled out of an outer table, payloads
    off a channel). *)

val hash_of_key : config -> Bytes.t -> int
(** Just the hash field (cheaper than {!decode} when only matching). *)

val try_recover :
  config ->
  alice_key:Bytes.t ->
  bob_child:Ssr_util.Iset.t ->
  Ssr_util.Iset.t option
(** The pairing step of Algorithm 1: subtract Bob's child IBLT from the one
    decoded out of Alice's encoding, peel, apply the element difference to
    Bob's child, and accept only if the result matches the encoding's child
    hash. [None] if peeling fails or the hash disagrees. *)
