(** Document-collection reconciliation via shingles (paper §1, after
    Broder's resemblance work).

    A document is represented by the set of hashes of its length-k word
    windows (shingles); a collection of documents is then a set of sets.
    When two collections share mostly-identical documents with a few
    near-duplicates, the shingle sets differ in few elements and set-of-sets
    reconciliation transfers only the differences. Documents with no close
    counterpart ("fresh" documents) surface as children whose reconciled
    difference is their entire shingle set — the classification the paper
    sketches for finding non-duplicate documents. *)

type doc
(** A shingled document. *)

val shingle : k:int -> string -> doc
(** Split on non-alphanumeric characters, lowercase, hash every window of
    [k] consecutive words (62-bit). Texts shorter than [k] words hash the
    whole text as one shingle. *)

val shingle_set : doc -> Ssr_util.Iset.t

val resemblance : doc -> doc -> float
(** Broder resemblance |A ∩ B| / |A ∪ B| of the shingle sets (1.0 for two
    empty documents). *)

type collection

val collection : doc list -> collection
val equal : collection -> collection -> bool

type classification = {
  unchanged : int;  (** Bob's documents identical to Alice's. *)
  near_duplicates : int;  (** Recovered by patching a similar document. *)
  fresh : int;  (** No counterpart: transferred (almost) whole. *)
}

val reconcile :
  Ssr_core.Protocol.kind -> seed:int64 ->
  alice:collection -> bob:collection -> unit ->
  (collection * classification * Ssr_setrecon.Comm.stats,
   [ `Decode_failure of Ssr_setrecon.Comm.stats ])
  result
(** One-way reconciliation of the shingle-set collections (unknown-d
    mechanism, since document drift is never known in advance), together
    with the duplicate/near-duplicate/fresh classification computed from
    the recovered differences. Note the recovered collection contains
    shingle sets — enough to identify which documents Bob is missing; the
    documents' raw bytes travel out of band in a real deployment. *)
