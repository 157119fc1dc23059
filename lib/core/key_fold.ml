module Iblt = Ssr_sketch.Iblt

let group = 4

let make ~key_len fill =
  let bufs = Array.init group (fun _ -> Bytes.create key_len) in
  let keys = Array.make group Bytes.empty in
  fun table kids ->
    let n = Array.length kids in
    for g = 0 to (n / group) - 1 do
      for i = 0 to group - 1 do
        keys.(i) <- fill bufs.(i) kids.((group * g) + i)
      done;
      Iblt.add_all table keys
    done;
    for j = n / group * group to n - 1 do
      Iblt.insert table (fill bufs.(0) kids.(j))
    done
