(** Child-set encodings (paper §3.2).

    Algorithms 1 and 2 represent each child set as an (IBLT of the child's
    elements, short pairwise hash of the child) pair, serialized to a fixed
    width so the pair can itself be a key of an outer IBLT. Both parties
    derive the same child IBLT hash functions from the public-coin seed, so
    any two encodings of nearby children can be subtracted and peeled to
    reveal their element-level difference.

    {b Fold.} As in the paper, a party inserts each child's encoding into
    its outer table while it scans its children, so no encoding outlives
    its insert. {!fold} owns four key buffers and one child table for a
    pass: it fills the buffers with four children's encodings and inserts
    the group with [Iblt.add_all], which hashes the four keys in one
    interleaved pass, then overwrites them with the next four. The
    buffers hold exactly the bytes {!encode} returns, and counts add and
    XORs commute, so the folded table is byte-identical to
    [Iblt.add_all] of the encoded keys.

    {b Pairing.} Bob recovers one of Alice's differing children by
    subtracting one of his own child tables from the table inside her key
    and peeling. {!pairing} builds each of Bob's differing child tables at
    most once and parses each of Alice's keys once, so pairing d keys
    against d children costs O(d) table builds, not one per pair. *)

type config = {
  child_cells : int;  (** Cells of each child IBLT: O(d) in Alg 1, O(2^i) at level i of Alg 2. *)
  child_k : int;  (** Hash functions per child IBLT. *)
  hash_bits : int;  (** Width of the child hash: O(log s) / O(log st). *)
  seed : int64;
}

val child_hash : config -> Ssr_util.Iset.t -> int
(** The truncated pairwise-style hash of the child's canonical form.
    [child_hash cfg] derives the hash function once, for many children. *)

val key_length : config -> int
(** Width in bytes of a serialized encoding. *)

val encode : config -> Ssr_util.Iset.t -> Bytes.t
(** [child IBLT body || child hash (little-endian)], of width
    [key_length], in a fresh buffer. [encode cfg] derives the child-table
    parameters and the child hash function once; the staged function is
    safe to call from several domains at once. *)

val encoder : config -> Ssr_util.Iset.t -> Bytes.t
(** [encoder cfg] allocates one key buffer and one child table; each
    application overwrites that buffer with the child's {!encode} bytes
    and returns it, allocating nothing. The bytes hold until the next
    application: compare or insert them first. Not reentrant. *)

val fold : ?memo:Enc_cache.t -> config -> Ssr_sketch.Iblt.t -> Ssr_util.Iset.t array -> unit
(** The fold. [fold cfg] allocates four key buffers and one child table;
    each application [fold cfg table kids] inserts every child's encoding
    into [table], four at a time, allocating nothing: for each child it
    empties the child table, inserts the child's elements and copies the
    table's packed store and the child hash into a buffer. Not reentrant:
    one pass, one domain.

    With [memo], a child already in the memo under this configuration
    is inserted from the memo's copy (read, never written), and a miss
    fills a buffer and keeps one copy. *)

val decode : config -> Bytes.t -> Ssr_sketch.Iblt.t * int
(** Parse an encoding back into its table and hash. Raises
    [Invalid_argument] on wrong-sized input; use {!decode_opt} for bytes
    that are not known to be well-formed. *)

val decode_opt : config -> Bytes.t -> (Ssr_sketch.Iblt.t * int) option
(** Non-raising {!decode}: [None] on wrong-sized input. This is the entry
    point for untrusted bytes (keys peeled out of an outer table, payloads
    off a channel). *)

val hash_of_key : config -> Bytes.t -> int
(** Just the hash field, read in place: the child hash every key already
    carries, which is how Bob indexes his children to map a peeled key
    back to one of them. [hash_of_key cfg] derives the field's offset
    once. Raises [Invalid_argument] on wrong-sized input. *)

val try_recover :
  config ->
  alice_key:Bytes.t ->
  bob_child:Ssr_util.Iset.t ->
  Ssr_util.Iset.t option
(** The pairing step of Algorithm 1 for one pair: subtract Bob's child
    IBLT from the one decoded out of Alice's encoding, peel, apply the
    element difference to Bob's child, and accept only if the result
    matches the encoding's child hash. [None] if the key does not parse,
    peeling fails or the hash disagrees. *)

val pairing : config -> Ssr_util.Iset.t list -> Bytes.t -> Ssr_util.Iset.t option
(** [pairing cfg bob_children alice_key] is the first of [bob_children],
    in list order, for which {!try_recover} succeeds, and what it
    recovers: the same answer as scanning the list with {!try_recover}.
    [pairing cfg bob_children] builds each of Bob's child tables at most
    once, on first use, for every key it is applied to; each application
    parses its key once. *)
