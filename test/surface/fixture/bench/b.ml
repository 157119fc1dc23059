module C = Ssr_util.Codec

(* Ssr_util.Codec.uncalled is not a call *)
let y = C.aliased 1
let s = "Codec.uncalled"
