(** Configurable "classic extent file system" engine.

    The ext4-DAX, xfs-DAX and PMFS baselines are policy presets over this
    engine (see {!Ext4_dax}, {!Xfs_dax}, {!Pmfs}): an extent allocator with
    no aligned-extent reservation ({!Repro_alloc.Pool_alloc}), a metadata
    journal (global JBD2-style redo, or a single PM-optimised undo journal
    for PMFS), in-place data writes that become durable at fsync, and an
    mmap fault path that only produces hugepages when an extent {e happens}
    to be aligned — exactly the behaviours §2.5/§2.6 blame for hugepage
    loss under aging.

    Metadata lives in DRAM with journal traffic charged against real PM
    addresses; mount-from-image is supported only for WineFS (the paper's
    crash study, §5.2, targets WineFS alone) — see DESIGN.md. *)

open Repro_util
module Device = Repro_pmem.Device
module Vmem = Repro_memsim.Vmem
module Sched = Repro_sched.Sched
module Types = Repro_vfs.Types
module Site = Repro_pmem.Site

(* Durability-lint sites: the engine labels every persistence region so
   sanitizer/faultcheck findings name the layer at fault. *)
let site_meta = Site.v "basefs" "meta"
let site_zero = Site.v "basefs" "zero"
let site_data = Site.v "basefs" "data"
let site_fsync = Site.v "basefs" "fsync"
let site_fault = Site.v "basefs" "fault"
module Dir_index = Repro_vfs.Dir_index
module Fd_table = Repro_vfs.Fd_table
module Block_map = Repro_vfs.Block_map
module Cost = Repro_vfs.Fs_intf.Cost
module Redo = Repro_journal.Redo_journal
module Undo = Repro_journal.Undo_journal
module Alloc = Repro_alloc.Pool_alloc
module Extent_tree = Repro_rbtree.Extent_tree
module Stats = Repro_stats.Stats

let huge = Units.huge_page
let block = Units.base_page

type journal_kind = Jbd2_redo | Pmfs_undo

type preset = {
  label : string;
  alloc_cfg : Alloc.config;
  dir_policy : Dir_index.policy;
  journal : journal_kind;
  zero_on_fallocate : bool;
      (** NOVA-style zeroing at allocation; [false] = ext4-style unwritten
          extents zeroed on first fault. *)
  misaligned_start : bool;
      (** Shift the data area off 2MB alignment — models allocators that
          disregard alignment entirely (xfs-DAX, PMFS; footnote 1). *)
  huge_fault_alloc : bool;  (** attempt a 2MB allocation on a PMD fault *)
  goal_alloc : bool;  (** pass the file's last extent as a locality goal *)
}

type journal = Jredo of Redo.t | Jundo of Undo.t * Sched.mutex

type payload = {
  (* Fallocated-but-never-written file ranges.  Lazily allocated on the
     first fallocate: the common create/write/unlink lifecycle never
     fallocates, and the eager per-file tree was measurable in aging. *)
  mutable unwritten : Extent_tree.t option;
  mutable dirty_bytes : int;
  mutable goal : int; (* physical end of the last allocation *)
  meta_addr : int; (* synthetic PM address of this inode's metadata *)
}

type file = payload Dram_ns.file

type t = {
  dev : Device.t;
  cfg : Types.config;
  preset : preset;
  journal : journal;
  ns : payload Dram_ns.t;
}

let inode_meta_bytes = 256

(* ------------------------------------------------------------------ *)
(* Journal cost model                                                  *)

(* Synchronous namespace mutation: both journal kinds make it durable
   before returning. *)
let meta_sync t cpu ~addr ~bytes =
  match t.journal with
  | Jredo j ->
      Redo.add j cpu ~addr ~data:(String.make bytes '\000');
      Redo.commit j cpu
  | Jundo (j, lock) ->
      (* PMFS's logging is fine-grained: the global journal is held only
         for the compact log append (why PMFS scales in Figure 10); the
         in-place metadata write happens outside the lock. *)
      Sched.with_lock lock (fun () ->
          let txn = Undo.begin_txn j cpu ~reserve:2 in
          Undo.log_range j cpu txn ~addr ~len:(min bytes 24);
          Undo.commit j cpu txn);
      let n = min bytes 64 in
      Device.with_site t.dev site_meta (fun () ->
          Device.write t.dev cpu ~off:addr ~src:(Bytes.make n '\000') ~src_off:0 ~len:n;
          Device.persist t.dev cpu ~off:addr ~len:n)

(* Deferred metadata (size/extent updates on the write path): JBD2 buffers
   them in the running transaction until fsync — the costly-fsync,
   stop-the-world behaviour of ext4/xfs (§5.6).  PMFS journals immediately
   (fine-grained), which is why it scales. *)
let meta_buffered t cpu ~addr ~bytes =
  match t.journal with
  | Jredo j -> Redo.add j cpu ~addr ~data:(String.make bytes '\000')
  | Jundo _ -> meta_sync t cpu ~addr ~bytes

let journal_fsync t cpu =
  match t.journal with Jredo j -> Redo.commit j cpu | Jundo _ -> ()

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let format preset dev (cfg : Types.config) =
  let cpu = Cpu.make ~id:0 () in
  let size = Device.size dev in
  let journal_off = 4096 in
  let journal_size = min (4 * Units.mib) (max (256 * Units.kib) (size / 64)) in
  let inode_region = journal_off + Redo.bytes_needed ~size:journal_size in
  let inode_slots = min (cfg.cpus * cfg.inodes_per_cpu) (size / 4 / inode_meta_bytes) in
  let after_inodes = inode_region + (inode_slots * inode_meta_bytes) in
  let data_off = Units.round_up after_inodes huge in
  let data_off = if preset.misaligned_start then data_off + block else data_off in
  if data_off + huge > size then invalid_arg (preset.label ^ ": device too small");
  let data_len = size - data_off in
  let journal =
    match preset.journal with
    | Jbd2_redo -> Jredo (Redo.format dev cpu ~off:journal_off ~size:journal_size)
    | Pmfs_undo ->
        let counter = Undo.Txn_counter.create () in
        Jundo
          ( Undo.format dev cpu counter ~off:journal_off ~entries:512
              ~copy_bytes:(journal_size / 2),
            Sched.create_mutex ~name:"basefs:lock" () )
  in
  let regions =
    (* Carve per-CPU stripes only when the preset partitions free space. *)
    if preset.alloc_cfg.per_cpu then
      Array.init cfg.cpus (fun i ->
          let stripe = data_len / cfg.cpus in
          (data_off + (i * stripe), if i = cfg.cpus - 1 then data_len - ((cfg.cpus - 1) * stripe) else stripe))
    else [| (data_off, data_len) |]
  in
  let cpus_for_alloc = if preset.alloc_cfg.per_cpu then cfg.cpus else 1 in
  let payload meta_addr = { unwritten = None; dirty_bytes = 0; goal = data_off; meta_addr } in
  {
    dev;
    cfg;
    preset;
    journal;
    ns =
      Dram_ns.init
        ~alloc:(Alloc.create preset.alloc_cfg ~cpus:cpus_for_alloc ~regions)
        ~capacity:data_len ~dir_policy:preset.dir_policy ~root:(payload inode_region)
        ~payload:(fun ino -> payload (inode_region + (ino mod inode_slots * inode_meta_bytes)));
  }

let unmount t cpu = journal_fsync t cpu
let device t = t.dev
let config t = t.cfg

let alloc_cpu t (cpu : Cpu.t) =
  if t.preset.alloc_cfg.per_cpu then cpu.id mod t.cfg.cpus else 0

let allocate t cpu (f : file) ~len =
  let goal = if t.preset.goal_alloc then Some f.p.goal else None in
  let exts = Dram_ns.alloc ?goal t.ns ~cpu:(alloc_cpu t cpu) ~len in
  (match List.rev exts with last :: _ -> f.p.goal <- last.Alloc.off + last.Alloc.len | [] -> ());
  exts

(* Back every hole in [off, off+len) with block-granular extents;
   [unwritten] marks the new space as fallocate-style unwritten. *)
let ensure_backing t cpu (f : file) ~off ~len ~unwritten =
  Dram_ns.iter_holes f ~off ~len (fun ~off ~len ->
      let exts = allocate t cpu f ~len in
      Dram_ns.map_extents f ~file_off:off exts;
      if unwritten then begin
        if Option.is_none f.p.unwritten then f.p.unwritten <- Some (Extent_tree.create ());
        Extent_tree.insert_free (Option.get f.p.unwritten) ~off ~len
      end
      else if t.preset.zero_on_fallocate then
        List.iter
          (fun (e : Alloc.extent) ->
            Dram_ns.zero_extent t.dev cpu ~site:site_zero ~off:e.off ~len:e.len)
          exts;
      (* Metadata: extent tree insertion journaled (one record). *)
      meta_buffered t cpu ~addr:f.p.meta_addr ~bytes:64)

(* Drop the unwritten flag over [off, off+len), returning the pieces
   that had it in file order; zeroing them is the caller's business. *)
let clear_unwritten (f : file) ~off ~len =
  match f.p.unwritten with
  | None -> []
  | Some tr ->
      let pieces = ref [] in
      Extent_tree.iter_range tr ~off ~len (fun ~off:u_off ~len:u_len ->
          pieces := (max off u_off, min (off + len) (u_off + u_len)) :: !pieces);
      List.iter (fun (lo, hi) -> ignore (Extent_tree.alloc_exact tr ~off:lo ~len:(hi - lo))) !pieces;
      List.rev !pieces

(* ext4 reads unwritten extents as zeros: zero them in the file bytes
   [off, off+len) that [dst] holds from [dst_off]. *)
let zero_unwritten (f : file) ~off ~len dst ~dst_off =
  match f.p.unwritten with
  | None -> ()
  | Some tr ->
      Extent_tree.iter_range tr ~off ~len (fun ~off:u_off ~len:u_len ->
          let lo = max off u_off and hi = min (off + len) (u_off + u_len) in
          Bytes.fill dst (dst_off + (lo - off)) (hi - lo) '\000')

(* Clear the unwritten flag over the written blocks, zeroing the partial
   edges the write will not cover (ext4 semantics). *)
let mark_written t cpu (f : file) ~off ~len =
  let zero_edge lo hi =
    if hi > lo then
      match Block_map.lookup f.bmap ~file_off:lo with
      | Some (phys, run) ->
          Device.with_site t.dev site_zero (fun () ->
              Device.memset_nt t.dev cpu ~off:phys ~len:(min run (hi - lo)) '\000')
      | None -> ()
  in
  let lo = Units.round_down off block and hi = Units.round_up (off + len) block in
  List.iter
    (fun (clear_lo, clear_hi) ->
      if clear_lo < off then zero_edge clear_lo (min off clear_hi);
      if clear_hi > off + len then zero_edge (max (off + len) clear_lo) clear_hi)
    (clear_unwritten f ~off:lo ~len:(hi - lo))

(* ------------------------------------------------------------------ *)
(* Namespace: DRAM dentry update, then the journal record              *)

let journal_dentry t cpu ~parent:_ (f : file) update =
  update ();
  meta_sync t cpu ~addr:f.p.meta_addr ~bytes:128

(* ------------------------------------------------------------------ *)
(* Data path: in-place, durable at fsync (metadata-consistency class)  *)

let pwrite_sub t cpu fd ~off ~src ~src_off ~len =
  let f = Dram_ns.write_prologue t.ns cpu fd ~off ~src ~src_off ~len in
  if len = 0 then 0
  else begin
    Sched.with_lock f.lock (fun () ->
        ensure_backing t cpu f ~off ~len ~unwritten:false;
        mark_written t cpu f ~off ~len;
        Dram_ns.write_mapped t.dev cpu ~site:site_data f ~off ~src ~src_off ~len;
        f.p.dirty_bytes <- f.p.dirty_bytes + len;
        if off + len > f.size then begin
          f.size <- off + len;
          meta_buffered t cpu ~addr:f.p.meta_addr ~bytes:32
        end);
    Stats.count "fs.write_bytes" len;
    len
  end

include Dram_ns.Make (struct
  type nonrec t = t
  type nonrec payload = payload

  let ns t = t.ns
  let device = device
  let persist_link = journal_dentry
  let persist_unlink = journal_dentry
  let persist_rmdir = journal_dentry

  let persist_rename t cpu ~(src : file) ~dst:_ update =
    update ();
    meta_sync t cpu ~addr:src.p.meta_addr ~bytes:192

  let persist_truncate t cpu (f : file) update =
    Sched.with_lock f.lock (fun () ->
        update ();
        f.p.unwritten <- None;
        meta_sync t cpu ~addr:f.p.meta_addr ~bytes:64)

  let release t f = Dram_ns.free_blocks t.ns f
  let size _ (f : file) = f.size
  let log_bytes _ = 0
  let read_overlay _ _ f ~off ~len dst = zero_unwritten f ~off ~len dst ~dst_off:0
  let pwrite_sub = pwrite_sub
end)

(* fsync: stop-the-world journal commit (JBD2) plus data flush of this
   file's dirty bytes. *)
let fsync t cpu fd =
  Cost.charge_syscall cpu;
  let f = Dram_ns.file_of_fd t.ns fd in
  Dram_ns.flush_dirty t.dev cpu ~site:site_fsync f.p.dirty_bytes;
  f.p.dirty_bytes <- 0;
  journal_fsync t cpu;
  Stats.count "fs.fsync" 1

let fallocate t cpu fd ~off ~len =
  let f = Dram_ns.fallocate_prologue t.ns cpu fd ~off ~len in
  Sched.with_lock f.lock (fun () ->
      ensure_backing t cpu f ~off ~len ~unwritten:(not t.preset.zero_on_fallocate);
      if off + len > f.size then begin
        f.size <- off + len;
        meta_buffered t cpu ~addr:f.p.meta_addr ~bytes:32
      end);
  Stats.count "fs.fallocate" 1

let ftruncate t cpu fd new_size =
  let f = Dram_ns.ftruncate_prologue t.ns cpu fd new_size in
  Sched.with_lock f.lock (fun () ->
      ignore (Dram_ns.shrink t.dev cpu ~site:site_zero t.ns f new_size : int option);
      if new_size < f.size then ignore (clear_unwritten f ~off:new_size ~len:(f.size - new_size));
      f.size <- new_size;
      meta_sync t cpu ~addr:f.p.meta_addr ~bytes:64);
  Stats.count "fs.ftruncate" 1

(* ------------------------------------------------------------------ *)
(* mmap: hugepages only by accident (§2.5)                             *)

(* A fault clears the unwritten flag over all it maps: a fresh page or
   chunk, or one whose first page is unwritten, is zeroed whole (ext4),
   otherwise only its unwritten pieces are.  ext4 DAX's PMD fault
   allocates 2MB ([huge_fault_alloc]), but with no alignment preference
   it rarely maps huge. *)
let mmap_backing t fd : Vmem.backing =
  let ino = (Fd_table.get t.ns.fds fd).ino in
  let fill cpu f ~off ~len = ensure_backing t cpu f ~off ~len ~unwritten:false in
  let touch cpu (f : file) ~fresh ~file_off ~phys ~len =
    let zero ~off ~len = Dram_ns.zero_extent t.dev cpu ~site:site_fault ~off ~len in
    match clear_unwritten f ~off:file_off ~len with
    | (lo, _) :: _ when lo = file_off -> zero ~off:phys ~len
    | _ when fresh -> zero ~off:phys ~len
    | pieces -> List.iter (fun (lo, hi) -> zero ~off:(phys + lo - file_off) ~len:(hi - lo)) pieces
  in
  fun cpu ~file_off ~huge_ok ->
    Dram_ns.fault cpu (Dram_ns.find_file t.ns ino) ~file_off ~huge_ok
      ~fill_len:(if huge_ok && t.preset.huge_fault_alloc then huge else block)
      ~fill ~touch
