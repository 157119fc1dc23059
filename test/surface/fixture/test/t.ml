let name = "hook test"
let _ = (Ssr_util.Codec.hook, Ssr_util.Codec.test_only, Ssr_util.Codec.used)
