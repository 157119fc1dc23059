module Iset = Ssr_util.Iset

(* One encoder configuration: every input the encoder consumes besides the
   child itself. Within a family the child alone keys an entry, so a hit
   can only return the bytes the encoder would have produced. *)
type config = { cells : int; k : int; bits : int; seed : int64 }

type family = Bytes.t Iset.Tbl.t

(* A request holds a handful of families (one per cascade level and
   doubling bound it reaches), so a list is the whole index. *)
type t = { mutable families : (config * family) list }

let hits = Atomic.make 0
let misses = Atomic.make 0
let bytes = Atomic.make 0

let create () = { families = [] }

let family t ~cells ~k ~bits ~seed =
  let cfg = { cells; k; bits; seed } in
  match List.assoc_opt cfg t.families with
  | Some f -> f
  | None ->
    let f = Iset.Tbl.create 1024 in
    t.families <- (cfg, f) :: t.families;
    f

let find_or_fill fam fill buf child =
  match Iset.Tbl.find_opt fam child with
  | Some v ->
    Atomic.incr hits;
    v
  | None ->
    Atomic.incr misses;
    fill child buf;
    Iset.Tbl.add fam child (Bytes.copy buf);
    ignore (Atomic.fetch_and_add bytes (Bytes.length buf));
    buf

type stats = { hits : int; misses : int; bytes : int }

let stats () = { hits = Atomic.get hits; misses = Atomic.get misses; bytes = Atomic.get bytes }

let clear () =
  Atomic.set hits 0;
  Atomic.set misses 0;
  Atomic.set bytes 0
