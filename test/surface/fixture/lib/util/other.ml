let x = Codec.Sub.deep
