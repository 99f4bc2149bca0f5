open Repro_util
module Device = Repro_pmem.Device
module Types = Repro_vfs.Types

type t = {
  size : int;
  cpus : int;
  inodes_per_cpu : int;
  journal_entries : int;
  journal_copy_bytes : int;
  sb_off : int;
  journal_off : int array;
  inode_table_off : int array;
  serial_off : int;
  serial_len : int;
  meta_pool_off : int;
  meta_pool_len : int;
  data_off : int;
  stripes : (int * int) array;
}

let inode_bytes = 256
let inline_extents = 8
let sb_bytes = 4096

(* The 64B superblock replica lives in the second half of the (otherwise
   unused) 4K superblock page — no layout change, and far enough from the
   primary that one corrupt line never takes out both copies. *)
let sb_replica_off = sb_bytes / 2

(* The superblock reader mount and fsck share: both copies, a poisoned
   line reading as a checksum-class failure, reconciled by the caller's
   own repair (or finding) logic.  A device too short to hold the replica
   is not a WineFS image, and one whose size the superblock does not
   record would get a layout for space it lacks. *)
let read_superblock dev cpu ~reconcile =
  if Device.size dev < sb_replica_off + Codec.Superblock.bytes then
    Types.err EINVAL "not a WineFS image";
  let read off =
    let b = Bytes.create Codec.Superblock.bytes in
    match Device.read dev cpu ~off ~len:Codec.Superblock.bytes ~dst:b ~dst_off:0 with
    | () -> Codec.Superblock.decode_checked b
    | exception Device.Media_error _ -> `Bad_csum
  in
  let sb = reconcile (read 0, read sb_replica_off) in
  if sb.Codec.Superblock.size <> Device.size dev then
    Types.err EINVAL "device is %d bytes but the superblock says %d" (Device.size dev) sb.size;
  sb

let compute ~size ~cpus ~inodes_per_cpu =
  if cpus <= 0 then invalid_arg "Layout.compute: non-positive cpus";
  (* Clamp metadata to at most a quarter of the partition. *)
  let inodes_per_cpu =
    let budget = size / 4 / cpus / inode_bytes in
    max 64 (min inodes_per_cpu budget)
  in
  let journal_entries = 256 in
  let journal_copy_bytes =
    let cap = size / (cpus * 16) in
    max (64 * Units.kib) (min (Units.huge_page + (64 * Units.kib)) cap)
  in
  let journal_bytes =
    Units.round_up
      (Repro_journal.Undo_journal.bytes_needed ~entries:journal_entries
         ~copy_bytes:journal_copy_bytes)
      Units.base_page
  in
  let inode_table_bytes = Units.round_up (inodes_per_cpu * inode_bytes) Units.base_page in
  let serial_len = max (256 * Units.kib) (size / 128) in
  let meta_pool_len = max (512 * Units.kib) (min (64 * Units.mib) (size / 32)) in
  let sb_off = 0 in
  let journal_off = Array.init cpus (fun i -> sb_bytes + (i * journal_bytes)) in
  let inode_table_off =
    Array.init cpus (fun i -> sb_bytes + (cpus * journal_bytes) + (i * inode_table_bytes))
  in
  let serial_off = sb_bytes + (cpus * (journal_bytes + inode_table_bytes)) in
  let meta_pool_off = serial_off + serial_len in
  let data_off = Units.round_up (meta_pool_off + meta_pool_len) Units.huge_page in
  if data_off + Units.huge_page > size then
    invalid_arg "Layout.compute: device too small for WineFS metadata";
  let data_len = size - data_off in
  (* Per-CPU stripes, each starting 2MB-aligned. *)
  let stripe = Units.round_down (data_len / cpus) Units.huge_page in
  let stripe = max Units.huge_page stripe in
  let stripes =
    Array.init cpus (fun i ->
        let off = data_off + (i * stripe) in
        let len = if i = cpus - 1 then size - off else stripe in
        (off, len))
  in
  (* If the device is very small the last stripes may be empty; validate. *)
  Array.iter (fun (off, len) -> if len <= 0 || off + len > size then
      invalid_arg "Layout.compute: device too small for per-CPU stripes") stripes;
  {
    size;
    cpus;
    inodes_per_cpu;
    journal_entries;
    journal_copy_bytes;
    sb_off;
    journal_off;
    inode_table_off;
    serial_off;
    serial_len;
    meta_pool_off;
    meta_pool_len;
    data_off;
    stripes;
  }

let ino_of t ~cpu ~idx = (cpu * t.inodes_per_cpu) + idx + 1
let cpu_of_ino t ino = (ino - 1) / t.inodes_per_cpu
let idx_of_ino t ino = (ino - 1) mod t.inodes_per_cpu
let max_ino t = t.cpus * t.inodes_per_cpu

let inode_off t ino =
  let cpu = cpu_of_ino t ino and idx = idx_of_ino t ino in
  t.inode_table_off.(cpu) + (idx * inode_bytes)

let in_meta_pool t ~off ~len =
  len > 0 && off >= t.meta_pool_off && off + len <= t.meta_pool_off + t.meta_pool_len

let in_data_area t ~off ~len = len > 0 && off >= t.data_off && off + len <= t.size
