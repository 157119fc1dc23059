(** Binary relational database reconciliation (paper §1).

    "Consider relational databases consisting of binary data, where the
    columns are labeled but the rows are not. A row can equivalently be
    thought of as a set of elements from the universe of columns (the set
    of columns in which the row has a 1 entry). Reconciling two databases
    in which a total of d bits have been flipped corresponds exactly to our
    sets of sets problem."

    This module is that reduction: rows become child sets, the database
    becomes a parent set, a bit flip becomes an element change, and any
    set-of-sets protocol reconciles the two databases. *)

type t
(** A database: an (unordered, deduplicated) collection of rows over
    [columns] labeled columns. *)

val create : columns:int -> rows:bool array list -> t
(** Each row must have exactly [columns] entries. *)

val columns : t -> int
val num_rows : t -> int

val row_sets : t -> Ssr_util.Iset.t list
(** The rows as sets of 1-column indices. *)

val equal : t -> t -> bool

val total_ones : t -> int

val flip_random_bits : Ssr_util.Prng.t -> t -> int -> t
(** The paper's update model: flip [k] random (row, column) cells (never
    the same cell twice). *)

val reconcile :
  Ssr_core.Protocol.kind -> seed:int64 -> d:int ->
  alice:t -> bob:t -> unit ->
  (t * Ssr_setrecon.Comm.stats, [ `Decode_failure of Ssr_setrecon.Comm.stats ]) result
(** One-way: Bob recovers Alice's database. [d] bounds the number of
    flipped bits between the two. *)

val reconcile_unknown :
  Ssr_core.Protocol.kind -> seed:int64 ->
  alice:t -> bob:t -> unit ->
  (t * Ssr_setrecon.Comm.stats, [ `Decode_failure of Ssr_setrecon.Comm.stats ]) result
