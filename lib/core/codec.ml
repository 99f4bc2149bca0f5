let dentry_bytes = 64
let max_name = 47

let u64 buf off v = Bytes.set_int64_le buf off (Int64.of_int v)
let g64 buf off = Int64.to_int (Bytes.get_int64_le buf off)

module Crc = Repro_util.Crc32c

module Superblock = struct
  type t = {
    size : int;
    cpus : int;
    inodes_per_cpu : int;
    mode_strict : bool;
    clean : bool;
  }

  let magic = 0x57494E4546532121L (* "WINEFS!!" *)
  let bytes = 64
  let csum_off = 40

  (* CRC32C over the whole 64B block with the csum field zeroed: every
     non-checksum bit is covered, so any single-bit flip is detected. *)
  let encode t =
    let b = Bytes.make bytes '\000' in
    Bytes.set_int64_le b 0 magic;
    u64 b 8 t.size;
    u64 b 16 t.cpus;
    u64 b 24 t.inodes_per_cpu;
    u64 b 32 ((if t.mode_strict then 1 else 0) lor if t.clean then 2 else 0);
    Crc.set_zeroed b ~off:0 ~len:bytes ~csum_off;
    b

  let decode_fields b =
    let flags = g64 b 32 in
    {
      size = g64 b 8;
      cpus = g64 b 16;
      inodes_per_cpu = g64 b 24;
      mode_strict = flags land 1 <> 0;
      clean = flags land 2 <> 0;
    }

  (* Distinguishes "not a WineFS image" from "a WineFS superblock whose
     checksum fails" — mount repairs the latter from the replica. *)
  let decode_checked b =
    if Bytes.length b < bytes || Bytes.get_int64_le b 0 <> magic then `Bad_magic
    else if not (Crc.verify_zeroed b ~off:0 ~len:bytes ~csum_off) then `Bad_csum
    else `Ok (decode_fields b)

  let decode b = match decode_checked b with `Ok t -> Some t | `Bad_magic | `Bad_csum -> None
end

module Inode = struct
  type header = {
    valid : bool;
    is_dir : bool;
    xattr_align : bool;
    size : int;
    nlink : int;
    extent_count : int;
    overflow : int;
  }

  let header_bytes = 64
  let csum_off = 56

  (* Field offsets and flag bits, for readers that take the fields
     straight from a buffer instead of building a {!header}. *)
  let flags_off = 0
  let size_off = 8
  let nlink_off = 16
  let extent_count_off = 24
  let overflow_off = 32
  let flag_valid = 1
  let flag_dir = 2
  let flag_xattr_align = 4

  (* The header is exactly one cache line; the CRC at offset 56 covers all
     64 bytes (csum field zeroed), so a flipped [valid] bit cannot silently
     vanish or resurrect an inode.  Freed inodes keep a valid checksum
     (valid=false header), and never-used slots are all-zero — the scrub
     treats any other non-verifying slot as corrupt. *)
  let encode_header h =
    let b = Bytes.make header_bytes '\000' in
    let flags =
      (if h.valid then flag_valid else 0)
      lor (if h.is_dir then flag_dir else 0)
      lor if h.xattr_align then flag_xattr_align else 0
    in
    u64 b flags_off flags;
    u64 b size_off h.size;
    u64 b nlink_off h.nlink;
    u64 b extent_count_off h.extent_count;
    u64 b overflow_off h.overflow;
    Crc.set_zeroed b ~off:0 ~len:header_bytes ~csum_off;
    b

  (* The [_at] forms read a header in place at a byte offset of a larger
     buffer: the mount-time sweep tests and verifies each header where
     the bulk table read left it, with no per-header copy. *)
  let header_csum_ok_at b off =
    Crc.verify_zeroed b ~off ~len:header_bytes ~csum_off:(off + csum_off)

  let header_csum_ok b = header_csum_ok_at b 0

  let word_zero b off = Int64.equal (Bytes.get_int64_le b off) 0L

  let header_is_blank b =
    word_zero b 0
    && word_zero b 8
    && word_zero b 16
    && word_zero b 24
    && word_zero b 32
    && word_zero b 40
    && word_zero b 48
    && word_zero b 56

  let decode_header b =
    let flags = g64 b flags_off in
    {
      valid = flags land flag_valid <> 0;
      is_dir = flags land flag_dir <> 0;
      xattr_align = flags land flag_xattr_align <> 0;
      size = g64 b size_off;
      nlink = g64 b nlink_off;
      extent_count = g64 b extent_count_off;
      overflow = g64 b overflow_off;
    }

  let extent_bytes = 24
  let extent_slot_off i = header_bytes + (i * extent_bytes)

  (* Bit 62 of the stored length marks aligned-pool provenance (§3.4):
     extents the rewriter/allocator must return to the 2MB-aligned pool. *)
  let asrc_bit = 1 lsl 62

  let encode_extent ~file_off ~phys ~len =
    let b = Bytes.make extent_bytes '\000' in
    u64 b 0 file_off;
    u64 b 8 phys;
    u64 b 16 len;
    b

  let decode_extent b = (g64 b 0, g64 b 8, g64 b 16)

  (* Field readers for a record in a bulk-read slot region: the mount-time
     slot walk reads each region in one device access and takes the
     fields straight from the buffer, with no tuple per slot. *)
  let extent_file_off_off = 0
  let extent_phys_off = 8
  let extent_len_off = 16
  let extent_file_off_at b off = g64 b (off + extent_file_off_off)
  let extent_phys_at b off = g64 b (off + extent_phys_off)
  let extent_len_at b off = g64 b (off + extent_len_off) land lnot asrc_bit
  let extent_asrc_at b off = g64 b (off + extent_len_off) land asrc_bit <> 0
end

module Dentry = struct
  type t = { ino : int; name : string }

  let ino_off = 0
  let name_len_off = 8
  let name_off = 16

  let encode t =
    let n = String.length t.name in
    if n > max_name then Repro_vfs.Types.err ENAMETOOLONG "name %S" t.name;
    if n = 0 then Repro_vfs.Types.err EINVAL "empty name";
    let b = Bytes.make dentry_bytes '\000' in
    u64 b ino_off t.ino;
    Bytes.set b name_len_off (Char.chr n);
    Bytes.blit_string t.name 0 b name_off n;
    b

  (* In place at a byte offset of a bulk-read directory extent. *)
  let decode_at b off =
    let ino = g64 b (off + ino_off) in
    if ino = 0 then None
    else
      let n = Char.code (Bytes.get b (off + name_len_off)) in
      Some { ino; name = Bytes.sub_string b (off + name_off) n }

  let decode b = decode_at b 0

  let free_slot = Bytes.make dentry_bytes '\000'
end

module Overflow = struct
  let header_bytes = 16
  let capacity = (Repro_util.Units.base_page - header_bytes) / Inode.extent_bytes

  let encode_header ~next ~count =
    let b = Bytes.make header_bytes '\000' in
    u64 b 0 next;
    u64 b 8 count;
    b

  let decode_header b = (g64 b 0, g64 b 8)
  let record_off i = header_bytes + (i * Inode.extent_bytes)
end

module Serial = struct
  let magic = 0x46524545535421L

  let encode exts ~capacity_bytes =
    let n = List.length exts in
    let need = 16 + (n * 16) in
    if need > capacity_bytes then None
    else begin
      let b = Bytes.make need '\000' in
      Bytes.set_int64_le b 0 magic;
      u64 b 8 n;
      List.iteri
        (fun i (off, len) ->
          u64 b (16 + (i * 16)) off;
          u64 b (16 + (i * 16) + 8) len)
        exts;
      Some b
    end

  let decode b =
    if Bytes.length b < 16 || Bytes.get_int64_le b 0 <> magic then None
    else begin
      let n = g64 b 8 in
      if n < 0 || 16 + (n * 16) > Bytes.length b then None
      else
        Some
          (List.init n (fun i -> (g64 b (16 + (i * 16)), g64 b (16 + (i * 16) + 8))))
    end

  let invalid = Bytes.make 16 '\000'
end
