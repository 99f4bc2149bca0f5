(* CRC-32C (Castagnoli), the polynomial PM file systems use for metadata
   checksums (NOVA-Fortis, and the SSE4.2 crc32 instruction).  Table-driven,
   reflected form; values fit OCaml's native int on 64-bit. *)

let poly = 0x82F63B78

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then poly lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let mask32 = 0xFFFFFFFF

(* Slicing-by-8 (Intel's technique): seven derived tables let the fold
   consume 8 bytes per step instead of one.  [tables.(0)] is the plain
   byte-at-a-time table; [tables.(k).(n)] advances the CRC of byte [n]
   through [k] further zero bytes. *)
let tables =
  let t = Array.make_matrix 8 256 0 in
  Array.blit table 0 t.(0) 0 256;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let v = t.(k - 1).(n) in
      t.(k).(n) <- table.(v land 0xFF) lxor (v lsr 8)
    done
  done;
  t

let update crc b ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Crc32c.update: range out of bounds";
  let c = ref (crc land mask32) in
  let i = ref off in
  let fin = off + len in
  let t0 = tables.(0) and t1 = tables.(1) and t2 = tables.(2) and t3 = tables.(3) in
  let t4 = tables.(4) and t5 = tables.(5) and t6 = tables.(6) and t7 = tables.(7) in
  (* 32-bit halves, not one int64 load: [Int64.to_int] drops bit 63, which
     would lose the top bit of the eighth byte. *)
  while fin - !i >= 8 do
    let lo = Int32.to_int (Bytes.get_int32_le b !i) land mask32 in
    let hi = Int32.to_int (Bytes.get_int32_le b (!i + 4)) land mask32 in
    let x = !c lxor lo in
    c :=
      t7.(x land 0xFF)
      lxor t6.((x lsr 8) land 0xFF)
      lxor t5.((x lsr 16) land 0xFF)
      lxor t4.(x lsr 24)
      lxor t3.(hi land 0xFF)
      lxor t2.((hi lsr 8) land 0xFF)
      lxor t1.((hi lsr 16) land 0xFF)
      lxor t0.(hi lsr 24);
    i := !i + 8
  done;
  while !i < fin do
    c := t0.((!c lxor Char.code (Bytes.unsafe_get b !i)) land 0xFF) lxor (!c lsr 8);
    incr i
  done;
  !c

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
   treated as zero, so every other bit is covered. *)
(* Shared and immutable: every header verify and persist, undo entry and
   redo record folds these four bytes, so they are not rebuilt per call. *)
let zero_field = "\000\000\000\000"

let digest_zeroed b ~off ~len ~csum_off =
  if csum_off < off || csum_off + 4 > off + len then
    invalid_arg "Crc32c.digest_zeroed: csum field outside range";
  let c = update init b ~off ~len:(csum_off - off) in
  let c = update_string c zero_field ~off:0 ~len:4 in
  finish (update c b ~off:(csum_off + 4) ~len:(off + len - csum_off - 4))

let put b ~csum_off v = Bytes.set_int32_le b csum_off (Int32.of_int (v land mask32))
let get b ~csum_off = Int32.to_int (Bytes.get_int32_le b csum_off) land mask32

let set_zeroed b ~off ~len ~csum_off =
  put b ~csum_off (digest_zeroed b ~off ~len ~csum_off)

let verify_zeroed b ~off ~len ~csum_off =
  get b ~csum_off = digest_zeroed b ~off ~len ~csum_off
