module Bits = Ssr_util.Bits
module Prng = Ssr_util.Prng
module Iblt = Ssr_sketch.Iblt

let plan ~seed ~enc_seed ~d ~d_hat ~s_bound ~k : Cascade.plan =
  let enc : Encoding.config =
    {
      child_cells = Iblt.recommended_cells ~k ~diff_bound:d;
      child_k = k;
      hash_bits = min 62 ((3 * Bits.ceil_log2 (max 2 s_bound)) + 10);
      seed = enc_seed;
    }
  in
  let outer : Iblt.params =
    {
      cells = Iblt.recommended_cells ~k ~diff_bound:(2 * d_hat);
      k;
      key_len = Encoding.key_length enc;
      seed = Prng.derive ~seed ~tag:0x07E5;
    }
  in
  { label = "outer-iblt+digest"; per_level = [| { enc; outer } |]; star = None }
