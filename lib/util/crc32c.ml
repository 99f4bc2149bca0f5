(* CRC-32C (Castagnoli), the polynomial PM file systems use for metadata
   checksums (NOVA-Fortis, and the SSE4.2 crc32 instruction).  Table-driven,
   reflected form; values fit OCaml's native int on 64-bit. *)

let poly = 0x82F63B78
let mask32 = 0xFFFFFFFF

(* Slicing-by-8 (Intel's technique): eight 256-entry tables in one flat
   array let the fold consume 8 bytes per step instead of one.  Entries
   [0, 256) are the plain byte-at-a-time table; entry [256 * k + n]
   advances the CRC of byte [n] through [k] further zero bytes. *)
let tables =
  let t = Array.make 2048 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then poly lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for i = 256 to 2047 do
    let v = t.(i - 256) in
    t.(i) <- t.(v land 0xFF) lxor (v lsr 8)
  done;
  t

(* The loads below skip their bounds checks: every table index is a byte
   plus a multiple of 256 under 2048, and every byte position lies in a
   range checked before the fold starts. *)
external get32u : bytes -> int -> int32 = "%caml_bytes_get32u"
external swap32 : int32 -> int32 = "%bswap_int32"

let[@inline] tab i = Array.unsafe_get tables i

let[@inline] get32_le b i =
  let v = get32u b i in
  Int32.to_int (if Sys.big_endian then swap32 v else v) land mask32

(* The CRC [c] advanced through the four bytes whose little-endian value
   is [x], with [k] (0 or 4) more bytes after them in the same step. *)
let[@inline] step4 c x k =
  let x = c lxor x and k = k * 256 in
  tab (k + 768 + (x land 0xFF))
  lxor tab (k + 512 + ((x lsr 8) land 0xFF))
  lxor tab (k + 256 + ((x lsr 16) land 0xFF))
  lxor tab (k + (x lsr 24))

(* Fold [off, off+len) of [b], a range the caller has checked. *)
let fold crc b ~off ~len =
  let c = ref (crc land mask32) in
  let i = ref off in
  let fin = off + len in
  (* 32-bit halves, not one int64 load: [Int64.to_int] drops bit 63, which
     would lose the top bit of the eighth byte. *)
  while fin - !i >= 8 do
    c := step4 !c (get32_le b !i) 4 lxor step4 0 (get32_le b (!i + 4)) 0;
    i := !i + 8
  done;
  if fin - !i >= 4 then begin
    c := step4 !c (get32_le b !i) 0;
    i := !i + 4
  end;
  while !i < fin do
    c := tab ((!c lxor Char.code (Bytes.unsafe_get b !i)) land 0xFF) lxor (!c lsr 8);
    incr i
  done;
  !c

let check_range b ~off ~len fn =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg ("Crc32c." ^ fn ^ ": range out of bounds")

let update crc b ~off ~len =
  check_range b ~off ~len "update";
  fold crc b ~off ~len

(* Same fold over an immutable string, without copying it into bytes
   first: journal record payloads arrive as strings, and a Bytes.of_string
   per record shows up in aging profiles. *)
let update_string crc s ~off ~len =
  update crc (Bytes.unsafe_of_string s) ~off ~len

let init = mask32
let finish crc = crc lxor mask32 land mask32

let digest ?(off = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - off in
  finish (update init b ~off ~len)

let digest_string s = digest (Bytes.unsafe_of_string s)

(* Checksum of a structure that embeds its own checksum field: compute
   over the whole [len] bytes with the [csum_off, csum_off+4) field
   treated as zero, so every other bit is covered.  The field is folded
   as one 4-byte step of zeros; every header verify and persist, undo
   entry and redo record goes through here. *)
let digest_zeroed b ~off ~len ~csum_off =
  check_range b ~off ~len "digest_zeroed";
  if csum_off < off || csum_off + 4 > off + len then
    invalid_arg "Crc32c.digest_zeroed: csum field outside range";
  let c = fold init b ~off ~len:(csum_off - off) in
  let c = step4 c 0 0 in
  finish (fold c b ~off:(csum_off + 4) ~len:(off + len - csum_off - 4))

let put b ~csum_off v = Bytes.set_int32_le b csum_off (Int32.of_int (v land mask32))
let get b ~csum_off = Int32.to_int (Bytes.get_int32_le b csum_off) land mask32

let set_zeroed b ~off ~len ~csum_off =
  put b ~csum_off (digest_zeroed b ~off ~len ~csum_off)

let verify_zeroed b ~off ~len ~csum_off =
  get b ~csum_off = digest_zeroed b ~off ~len ~csum_off
