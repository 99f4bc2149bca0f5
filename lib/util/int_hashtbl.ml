let mask32 = 0xffff_ffff
let rotl32 x n = ((x lsl n) lor (x lsr (32 - n))) land mask32
let mul32 a b = a * b land mask32

(* runtime/hash.c: [caml_hash_mix_intnat] folds the 64-bit tagged word
   [w = 2i + 1] to [(w >> 32) ^ (w >> 63) ^ w] (low 32 bits), mixes it
   into the zero seed, then [FINAL_MIX] and [land 0x3FFFFFFF]. *)
let hash i =
  let w = ((i asr 31) lxor (i asr 62) lxor ((i lsl 1) lor 1)) land mask32 in
  let d = mul32 (rotl32 (mul32 w 0xcc9e2d51) 15) 0x1b873593 in
  let h = ((rotl32 d 13 * 5) + 0xe6546b64) land mask32 in
  let h = mul32 (h lxor (h lsr 16)) 0x85ebca6b in
  let h = mul32 (h lxor (h lsr 13)) 0xc2b2ae35 in
  (h lxor (h lsr 16)) land 0x3fff_ffff

include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = hash
end)
