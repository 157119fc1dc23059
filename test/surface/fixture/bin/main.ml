let z = Ssr_util.Codec.used 2
