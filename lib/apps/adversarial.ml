module Iset = Ssr_util.Iset
module Prng = Ssr_util.Prng
module Iblt = Ssr_sketch.Iblt
module Rateless = Ssr_sketch.Rateless

(* Keys are accepted iff every one of their k schedule positions lands in
   the first [confine] cells of its partition. d accepted keys then share
   k * confine cells; with the default confinement that is an average load
   of 2k keys per touched cell at the recommended table size, so no cell is
   pure and peeling cannot start. Acceptance probability per candidate is
   (confine / per_part)^k — the confinement auto-scales with the partition
   so grinding stays ~thousands of hash evaluations per accepted key. *)

let default_confine ~per_part = max 2 (per_part / 8)

let grind_tag = 0xAD5A

let colliding_ints ~prm ?confine ?(salt = 0) ~count () =
  if count < 0 then invalid_arg "Adversarial.colliding_ints: negative count";
  let probe = Iblt.create prm in
  let nprm = Iblt.params probe in
  let per_part = nprm.Iblt.cells / nprm.Iblt.k in
  let confine = match confine with Some c -> max 1 (min c per_part) | None -> default_confine ~per_part in
  let rng = Prng.create ~seed:(Prng.derive ~seed:nprm.Iblt.seed ~tag:(grind_tag + salt)) in
  let seen = Hashtbl.create (2 * count) in
  let accepted = ref [] in
  let n = ref 0 in
  (* Candidates come from a seeded stream, so families are deterministic in
     (seed, salt) and disjoint families are a salt apart. The bound caps
     runaway grinds if someone confines far below the default. *)
  let budget = ref (1 + (count * 4_000_000)) in
  while !n < count && !budget > 0 do
    decr budget;
    let x = Prng.int_below rng (1 lsl 40) in
    if not (Hashtbl.mem seen x) then begin
      Hashtbl.add seen x ();
      let pos = Iblt.positions_int probe x in
      let ok = ref true in
      Array.iteri (fun i p -> if p - (i * per_part) >= confine then ok := false) pos;
      if !ok then begin
        accepted := x :: !accepted;
        incr n
      end
    end
  done;
  if !n < count then invalid_arg "Adversarial.colliding_ints: grind budget exhausted";
  List.rev !accepted

let family ~prm ?confine ?salt ~count () =
  Iset.of_list (colliding_ints ~prm ?confine ?salt ~count ())

(* Bob's base set is ordinary random keys from a disjoint range (above the
   grinders' 2^40 candidate universe), so exactly the engineered family is
   the difference the sketch must decode. *)
let with_base ~seed ~salt ~bob_size diff =
  let rng = Prng.create ~seed:(Prng.derive ~seed ~tag:(grind_tag + 0x100 + salt)) in
  let base = ref Iset.empty in
  while Iset.cardinal !base < bob_size do
    let x = (1 lsl 40) + Prng.int_below rng (1 lsl 40) in
    base := Iset.add x !base
  done;
  let bob = !base in
  (Iset.union bob diff, bob)

let workload ~prm ?confine ?(salt = 0) ~bob_size ~count () =
  let nprm = (Iblt.params (Iblt.create prm) : Iblt.params) in
  with_base ~seed:nprm.Iblt.seed ~salt ~bob_size (family ~prm ?confine ~salt ~count ())

(* Rateless-aware grinding. Every key belongs to cell 0, and to cell i > 0
   with probability 2/(i+2), so a key misses every cell in [1, w) with
   probability 2/(w(w+1)). Keys that all skip [1, w) coincide on the
   first w cells: cell 0 holds all of them and is never pure, cells 1 to
   w-1 hold none, and no peel can start before cell w. The grinder draws
   a fixed [rateless_budget] of candidates, ranks them by their first
   member after cell 0 and keeps the [count] latest; w is the smallest of
   those, the largest value the budget reaches (about
   sqrt(2 budget / count)). *)

let rateless_grind_tag = 0xAD5B

let rateless_budget = 1 lsl 16

let rateless_colliding_ints ~seed ~count () =
  if count < 0 then invalid_arg "Adversarial.rateless_colliding_ints: negative count";
  if rateless_budget < count then
    invalid_arg "Adversarial.rateless_colliding_ints: count above the grind budget";
  let walk = Rateless.walk_int ~seed in
  let rng = Prng.create ~seed:(Prng.derive ~seed ~tag:rateless_grind_tag) in
  let gap x =
    match Seq.uncons (Seq.drop 1 (walk x)) with Some (j, _) -> j | None -> Rateless.max_index
  in
  let ranked =
    List.stable_sort
      (fun (j, _) (j', _) -> compare j' j)
      (List.init rateless_budget (fun _ ->
           let x = Prng.int_below rng (1 lsl 40) in
           (gap x, x)))
  in
  let seen = Hashtbl.create (2 * count) in
  let rec take n acc = function
    | _ when n = count -> acc
    | [] -> invalid_arg "Adversarial.rateless_colliding_ints: budget exhausted"
    | (j, x) :: rest ->
      if Hashtbl.mem seen x then take n acc rest
      else begin
        Hashtbl.add seen x ();
        take (n + 1) ((j, x) :: acc) rest
      end
  in
  let chosen = take 0 [] ranked in
  (List.rev_map snd chosen, List.fold_left (fun w (j, _) -> min w j) Rateless.max_index chosen)

let rateless_workload ~seed ~bob_size ~count () =
  let keys, w = rateless_colliding_ints ~seed ~count () in
  (with_base ~seed ~salt:0 ~bob_size (Iset.of_list keys), w)
