(** Fixed-width direct encodings of whole child sets.

    The naive protocol (Theorem 3.3) and the overflow table T* of Algorithm 2
    treat a child set as a single key from a universe of size
    sum_{i<=h} C(u,i) = O(min(u^h, 2^u)): a child is serialized in
    min(h log u, u) bits (rounded to bytes). Small universes use a bitmap;
    large ones a padded sorted list. *)

type config = { u : int; h : int }
(** Universe size and maximum child cardinality. *)

type mode = Bitmap | Element_list

val mode : config -> mode
(** Whichever of the two encodings is narrower. *)

val key_length : config -> int
(** Width in bytes of every encoded child under [config]. *)

val encode : config -> Ssr_util.Iset.t -> Bytes.t
(** The encoding, in a fresh buffer. Raises [Invalid_argument] if the
    child has more than [h] elements or an element outside [\[0, u)]. *)

val encoder : config -> Ssr_util.Iset.t -> Bytes.t
(** As {!Encoding.encoder}: [encoder cfg] allocates one key buffer, and
    each application overwrites it with the child's {!encode} bytes and
    returns it. Not reentrant. *)

val fold : config -> Ssr_sketch.Iblt.t -> Ssr_util.Iset.t array -> unit
(** The fold, as {!Encoding.fold}: [fold cfg] allocates four key buffers,
    and each application [fold cfg table kids] writes every child's
    {!encode} bytes into them, four at a time, and inserts each group
    with [Iblt.add_all], allocating nothing. Not reentrant. Direct
    encodings cost less to write than to look up, so they take no
    memo. *)

val decode : config -> Bytes.t -> Ssr_util.Iset.t option
(** [None] when the bytes are not a valid encoding (corrupt keys peeled out
    of an overloaded IBLT fail here rather than producing garbage sets). *)
