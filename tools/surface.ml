(* Public-surface check: every [val] of [lib/*/*.mli] needs a caller
   outside its own module and outside test/, or a line on the allowlist.

   usage: surface.exe ROOT ALLOWLIST

   Exports are the [val]s of ROOT/lib/<library>/<module>.mli, those of
   nested [module X : sig ... end] blocks included. Callers are the .ml
   files under ROOT/lib, bin, bench, perfbench and examples. A reference is
   a path [M.v] or [M.Sub.v] whose head is a sibling module of the same
   library (inside lib/ only), a library path [Ssr_x.M], or a local alias
   [module X = ...] that expands to one of them. Comments and literals are
   skipped. The .ml files under ROOT/test only tell an uncalled export from
   a test-only one in the report.

   An allowlist line reads [Module.value FILE "needle"]: FILE is a test
   file under test/ or DESIGN.md, and must contain the needle (the test's
   name, or the paper row of DESIGN.md §1 that needs the export). Lines
   starting with '#' and blank lines are skipped.

   Prints one line per finding and exits 1 if there is any. *)

let caller_dirs = [ "lib"; "bin"; "bench"; "perfbench"; "examples" ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let is_dir p = Sys.file_exists p && Sys.is_directory p

let entries dir =
  if is_dir dir then (
    let a = Sys.readdir dir in
    Array.sort compare a;
    List.filter (fun n -> n <> "_build" && n.[0] <> '.') (Array.to_list a))
  else []

let rec files_under ~suffix dir =
  List.concat_map
    (fun name ->
      let p = Filename.concat dir name in
      if is_dir p then files_under ~suffix p
      else if Filename.check_suffix name suffix then [ p ]
      else [])
    (entries dir)

let contains s needle =
  let m = String.length needle in
  let rec from i = i + m <= String.length s && (String.sub s i m = needle || from (i + 1)) in
  m > 0 && from 0

let module_of_file path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

let is_upper c = c >= 'A' && c <= 'Z'

let is_start c = match c with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false

let is_ident c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false

(* Blank out comments (nested), string literals (plain and {id|quoted|id})
   and character literals, keeping newlines so that line numbers hold. *)
let strip src =
  let n = String.length src in
  let out = Bytes.of_string src in
  let blank i j = for k = i to min j n - 1 do if src.[k] <> '\n' then Bytes.set out k ' ' done in
  (* index just past the string literal whose opening quote is at i *)
  let rec string_end i =
    if i >= n then n
    else match src.[i] with '"' -> i + 1 | '\\' -> string_end (i + 2) | _ -> string_end (i + 1)
  in
  let quoted_end i =
    let j = ref (i + 1) in
    while !j < n && (match src.[!j] with 'a' .. 'z' | '_' -> true | _ -> false) do incr j done;
    if !j < n && src.[!j] = '|' then (
      let close = "|" ^ String.sub src (i + 1) (!j - i - 1) ^ "}" in
      let m = String.length close in
      let k = ref (!j + 1) in
      while !k + m <= n && String.sub src !k m <> close do incr k done;
      Some (min n (!k + m)))
    else None
  in
  let rec comment_end depth i =
    if i >= n then n
    else if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then comment_end (depth + 1) (i + 2)
    else if i + 1 < n && src.[i] = '*' && src.[i + 1] = ')' then
      if depth = 1 then i + 2 else comment_end (depth - 1) (i + 2)
    else if src.[i] = '"' then comment_end depth (string_end (i + 1))
    else comment_end depth (i + 1)
  in
  let rec go i =
    if i < n then
      match src.[i] with
      | '(' when i + 1 < n && src.[i + 1] = '*' ->
          let j = comment_end 0 i in
          blank i j; go j
      | '"' ->
          let j = string_end (i + 1) in
          blank i j; go j
      | '{' -> (
          match quoted_end i with Some j -> blank i j; go j | None -> go (i + 1))
      | '\'' when i > 0 && is_ident src.[i - 1] -> go (i + 1)
      | '\'' when i + 2 < n && src.[i + 1] <> '\\' && src.[i + 2] = '\'' ->
          blank i (i + 3); go (i + 3)
      | '\'' when i + 1 < n && src.[i + 1] = '\\' ->
          let j = ref (i + 2) in
          while !j < n && src.[!j] <> '\'' do incr j done;
          blank i (!j + 1); go (!j + 1)
      | _ -> go (i + 1)
  in
  go 0;
  Bytes.to_string out

type token = { text : string; line : int }

(* Words, dotted paths ([Ssr_x.M.v], [M.Sub]) and the two signs [=] and
   [:], each with its line. A path right after a '.' (a record field
   qualified by its module) is not a reference and is dropped. *)
let tokens src =
  let n = String.length src in
  let acc = ref [] and line = ref 1 and i = ref 0 in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then (incr line; incr i)
    else if c = '=' || c = ':' then (
      let j = ref !i in
      while !j < n && (match src.[!j] with '=' | ':' | '<' | '>' | '|' | '&' | '@' | '^' -> true | _ -> false) do incr j done;
      if !j = !i + 1 then acc := { text = String.make 1 c; line = !line } :: !acc;
      i := !j)
    else if is_start c then (
      let start = !i in
      let stop = ref !i and more = ref true in
      while !more do
        let part = !stop in
        while !stop < n && is_ident src.[!stop] do incr stop done;
        if is_upper src.[part] && !stop + 1 < n && src.[!stop] = '.' && is_start src.[!stop + 1]
        then incr stop
        else more := false
      done;
      if not (start > 0 && src.[start - 1] = '.') then
        acc := { text = String.sub src start (!stop - start); line = !line } :: !acc;
      i := !stop)
    else incr i
  done;
  Array.of_list (List.rev !acc)

let tokens_of_file file = tokens (strip (read_file file))

(* ---- exports ---- *)

type export = { key : string; file : string; line : int }

let exports_of_mli file =
  let toks = tokens_of_file file in
  let len = Array.length toks in
  let text i = if i < len then toks.(i).text else "" in
  let acc = ref [] in
  (* one frame per open sig/struct/object: [Some name] for [module name : sig] *)
  let stack = ref [] in
  Array.iteri
    (fun i t ->
      match t.text with
      | "sig" | "struct" | "object" ->
          let frame =
            if i >= 3 && text (i - 3) = "module" && text (i - 1) = ":" then Some (text (i - 2))
            else None
          in
          stack := frame :: !stack
      | "end" -> (match !stack with _ :: rest -> stack := rest | [] -> ())
      | "val" when List.for_all Option.is_some !stack ->
          let path = List.rev_map Option.get !stack in
          let key = String.concat "." ((module_of_file file :: path) @ [ text (i + 1) ]) in
          acc := { key; file; line = t.line } :: !acc
      | _ -> ())
    toks;
  List.rev !acc

(* ---- callers ---- *)

(* Calls [f key] for each reference of [file] that resolves to a lib module
   other than [self]; [key] is the dotted path from that module down. *)
let references ~libs ~siblings ~self file f =
  let toks = tokens_of_file file in
  let len = Array.length toks in
  let aliases = Hashtbl.create 16 in
  for i = 0 to len - 4 do
    if toks.(i).text = "module" && toks.(i + 2).text = "=" && is_upper toks.(i + 3).text.[0] then
      Hashtbl.replace aliases toks.(i + 1).text (String.split_on_char '.' toks.(i + 3).text)
  done;
  let rec expand depth = function
    | hd :: tl when depth < 8 && Hashtbl.mem aliases hd ->
        expand (depth + 1) (Hashtbl.find aliases hd @ tl)
    | parts -> parts
  in
  let resolve parts =
    match expand 0 parts with
    | lib :: m :: rest when List.mem m (Option.value ~default:[] (List.assoc_opt lib libs)) ->
        Some (m :: rest)
    | m :: rest when List.mem m siblings -> Some (m :: rest)
    | _ -> None
  in
  Array.iter
    (fun t ->
      if is_upper t.text.[0] then
        match resolve (String.split_on_char '.' t.text) with
        | Some (m :: rest) when m <> self && rest <> [] -> f (String.concat "." (m :: rest))
        | _ -> ())
    toks

(* ---- allowlist ---- *)

type allow = { value : string; where : string; needle : string; aline : int }

let parse_allowlist file =
  let lines = String.split_on_char '\n' (read_file file) in
  List.concat
    (List.mapi
       (fun i l ->
         let l = String.trim l in
         if l = "" || l.[0] = '#' then []
         else
           let fields = String.split_on_char ' ' l |> List.filter (( <> ) "") in
           match fields with
           | value :: where :: _ when String.contains l '"' ->
               let q0 = String.index l '"' in
               let q1 = try String.rindex l '"' with Not_found -> q0 in
               [ Ok { value; where; needle = String.sub l (q0 + 1) (max 0 (q1 - q0 - 1)); aline = i + 1 } ]
           | _ -> [ Error (i + 1, l) ])
       lines)

let () =
  let root, allow_file =
    match Sys.argv with
    | [| _; root; allow |] -> (root, allow)
    | _ ->
        prerr_endline "usage: surface.exe ROOT ALLOWLIST";
        exit 2
  in
  let under d = Filename.concat root d in
  let lib_dirs = List.filter (fun d -> is_dir (Filename.concat (under "lib") d)) (entries (under "lib")) in
  let mods_of dir =
    entries dir
    |> List.filter (fun f -> Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli")
    |> List.map module_of_file |> List.sort_uniq compare
  in
  let libs =
    List.map (fun d -> ("Ssr_" ^ d, mods_of (Filename.concat (under "lib") d))) lib_dirs
  in
  let exports =
    List.concat_map
      (fun d -> List.concat_map exports_of_mli (files_under ~suffix:".mli" (Filename.concat (under "lib") d)))
      lib_dirs
  in
  let called = Hashtbl.create 1024 and test_called = Hashtbl.create 1024 in
  let scan tbl file =
    let dir = Filename.dirname file in
    let siblings = if Filename.dirname dir = under "lib" then mods_of dir else [] in
    references ~libs ~siblings ~self:(module_of_file file) file (fun key -> Hashtbl.replace tbl key ())
  in
  List.iter (fun d -> List.iter (scan called) (files_under ~suffix:".ml" (under d))) caller_dirs;
  List.iter (scan test_called) (files_under ~suffix:".ml" (under "test"));
  let allow = parse_allowlist allow_file in
  let allowed = Hashtbl.create 64 in
  let findings = ref 0 in
  let report fmt = incr findings; Printf.printf fmt in
  List.iter
    (function
      | Error (line, l) -> report "%s:%d: malformed allowlist line: %s\n" allow_file line l
      | Ok a ->
          if Hashtbl.mem allowed a.value then
            report "%s:%d: %s listed twice\n" allow_file a.aline a.value
          else if not (List.exists (fun e -> e.key = a.value) exports) then
            report "%s:%d: stale: %s is not exported\n" allow_file a.aline a.value
          else if Hashtbl.mem called a.value then
            report "%s:%d: stale: %s has a caller outside test/\n" allow_file a.aline a.value
          else if not (String.starts_with ~prefix:"test/" a.where || a.where = "DESIGN.md") then
            report "%s:%d: %s: %s is neither a test file nor DESIGN.md\n" allow_file a.aline a.value a.where
          else if not (Sys.file_exists (under a.where) && contains (read_file (under a.where)) a.needle)
          then report "%s:%d: %s: %s does not contain \"%s\"\n" allow_file a.aline a.value a.where a.needle;
          Hashtbl.replace allowed a.value ())
    allow;
  let seen = Hashtbl.create 1024 in
  List.iter
    (fun e ->
      if not (Hashtbl.mem seen e.key) then (
        Hashtbl.replace seen e.key ();
        if not (Hashtbl.mem called e.key || Hashtbl.mem allowed e.key) then
          report "%s:%d: %s has %s\n" e.file e.line e.key
            (if Hashtbl.mem test_called e.key then "no caller outside test/" else "no caller")))
    exports;
  exit (if !findings = 0 then 0 else 1)
