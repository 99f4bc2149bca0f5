open Repro_util
open Repro_vfs
module Vmem = Repro_memsim.Vmem
module M = Repro_rbtree.Ordmap.Int_map

type segment = { region : Vmem.region; mutable tail : int }

type loc = { seg : int; off : int; len : int }

type t = {
  h : Fs_intf.handle;
  dir : string;
  segment_bytes : int;
  value_bytes : int;
  vm : Vmem.t;
  mutable segments : segment array;
  index : loc M.t; (* key -> latest record *)
  mutable setup_cpu : Cpu.t;
}

let record_bytes t = 16 + t.value_bytes (* key + length header + value *)

let create (Fs_intf.Handle ((module F), fs) as h) ?(dir = "/rocksdb")
    ?(segment_bytes = 8 * Units.mib) ?(value_bytes = 1024) () =
  let cpu = Cpu.make ~id:0 () in
  if not (F.exists fs cpu dir) then F.mkdir fs cpu dir;
  {
    h;
    dir;
    segment_bytes;
    value_bytes;
    vm = Vmem.create (F.device fs);
    segments = [||];
    index = M.create ();
    setup_cpu = cpu;
  }

let add_segment t cpu =
  let (Fs_intf.Handle ((module F), fs)) = t.h in
  let n = Array.length t.segments in
  let path = Printf.sprintf "%s/seg%06d" t.dir n in
  let fd = F.create fs cpu path in
  (* RocksDB-style: preallocate the whole segment, then mmap it. *)
  F.fallocate fs cpu fd ~off:0 ~len:t.segment_bytes;
  let region = Vmem.mmap t.vm ~len:t.segment_bytes ~backing:(F.mmap_backing fs fd) () in
  F.close fs cpu fd;
  let seg = { region; tail = 0 } in
  t.segments <- Array.append t.segments [| seg |];
  n

let append_record t cpu ~key =
  let rb = record_bytes t in
  let seg_idx =
    let n = Array.length t.segments in
    if n > 0 && t.segments.(n - 1).tail + rb <= t.segment_bytes then n - 1
    else add_segment t cpu
  in
  let seg = t.segments.(seg_idx) in
  let off = seg.tail in
  seg.tail <- off + rb;
  (* Header (key, value length) then the value, through the mapping. *)
  Vmem.write_u64 t.vm cpu seg.region ~off (Int64.of_int key);
  Vmem.write_u64 t.vm cpu seg.region ~off:(off + 8) (Int64.of_int t.value_bytes);
  Vmem.fill t.vm cpu seg.region ~off:(off + 16) ~len:t.value_bytes 'v';
  Vmem.persist t.vm cpu seg.region ~off ~len:rb;
  { seg = seg_idx; off; len = rb }

let insert t cpu ~key = M.insert t.index key (append_record t cpu ~key)
let update t cpu ~key = M.insert t.index key (append_record t cpu ~key)

let read_loc t cpu loc =
  let seg = t.segments.(loc.seg) in
  Vmem.read t.vm cpu seg.region ~off:loc.off ~len:loc.len

let read t cpu ~key =
  match M.find t.index key with
  | Some loc ->
      read_loc t cpu loc;
      true
  | None -> false

let scan t cpu ~key ~count =
  let found = ref 0 in
  let k = ref key in
  let exhausted = ref false in
  while !found < count && not !exhausted do
    match M.find_first_geq t.index !k with
    | Some (k', loc) ->
        read_loc t cpu loc;
        incr found;
        k := k' + 1
    | None -> exhausted := true
  done;
  !found

let key_count t = M.size t.index
let vm_counters t = Vmem.counters t.vm
