(** The group loop behind {!Encoding.fold} and {!Direct.fold}.

    A fold inserts one key per child into a table. It writes the keys into
    four reused buffers and hands each full group to
    {!Ssr_sketch.Iblt.add_all}, which hashes the four keys in one
    interleaved pass; a tail of one to three children is inserted one by
    one. Counts add and XORs commute, so the table ends byte-identical to
    inserting every child's key in order. *)

val make :
  key_len:int ->
  (Bytes.t -> Ssr_util.Iset.t -> Bytes.t) ->
  Ssr_sketch.Iblt.t ->
  Ssr_util.Iset.t array ->
  unit
(** [make ~key_len fill] allocates four [key_len]-byte buffers and returns
    the fold. [fill buf child] returns the child's key: usually [buf],
    overwritten, or a stored copy that the fold only reads. Each
    application [make ~key_len fill table kids] inserts every child's key
    into [table] and allocates nothing. Not reentrant: one pass, one
    domain. *)
