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
  match Alloc.alloc ?goal t.ns.alloc ~cpu:(alloc_cpu t cpu) ~len with
  | Some exts ->
      (match List.rev exts with
      | last :: _ -> f.p.goal <- last.Alloc.off + last.Alloc.len
      | [] -> ());
      exts
  | None -> Types.err ENOSPC "allocating %d bytes" len

(* Back every hole in [off, off+len) with block-granular extents;
   [unwritten] marks the new space as fallocate-style unwritten. *)
let ensure_backing t cpu (f : file) ~off ~len ~unwritten =
  let lo = Units.round_down off block and hi = Units.round_up (off + len) block in
  let cur = ref lo in
  while !cur < hi do
    match Block_map.lookup f.bmap ~file_off:!cur with
    | Some (_, run) -> cur := !cur + run
    | None ->
        let hole_end =
          match Block_map.next_mapped f.bmap ~file_off:(!cur + 1) with
          | Some o -> min hi o
          | None -> hi
        in
        let exts = allocate t cpu f ~len:(hole_end - !cur) in
        let fo = ref !cur in
        List.iter
          (fun (e : Alloc.extent) ->
            Block_map.insert f.bmap ~file_off:!fo ~phys:e.off ~len:e.len;
            if unwritten then begin
              let tr =
                match f.p.unwritten with
                | Some tr -> tr
                | None ->
                    let tr = Extent_tree.create () in
                    f.p.unwritten <- Some tr;
                    tr
              in
              Extent_tree.insert_free tr ~off:!fo ~len:e.len
            end
            else if t.preset.zero_on_fallocate then
              Device.with_site t.dev site_zero (fun () ->
                  Device.memset_nt t.dev cpu ~off:e.off ~len:e.len '\000';
                  Device.fence t.dev cpu);
            fo := !fo + e.len)
          exts;
        (* Metadata: extent tree insertion journaled (one record). *)
        meta_buffered t cpu ~addr:f.p.meta_addr ~bytes:64;
        cur := hole_end
  done

(* Clear the unwritten flag over a range, zeroing the partial edges the
   write will not cover (ext4 semantics). *)
let mark_written t cpu (f : file) ~off ~len =
  match f.p.unwritten with
  | None -> () (* the file never fallocated: nothing can be unwritten *)
  | Some unwritten ->
  let lo = Units.round_down off block and hi = Units.round_up (off + len) block in
  let cur = ref lo in
  while !cur < hi do
    match Extent_tree.extent_at unwritten ~off:!cur with
    | Some (u_off, u_len) ->
        let clear_lo = max u_off lo and clear_hi = min (u_off + u_len) hi in
        ignore (Extent_tree.alloc_exact unwritten ~off:clear_lo ~len:(clear_hi - clear_lo));
        (* Zero the block-aligned edges outside the written range. *)
        let zero_edge file_lo file_hi =
          if file_hi > file_lo then
            match Block_map.lookup f.bmap ~file_off:file_lo with
            | Some (phys, run) ->
                Device.with_site t.dev site_zero (fun () ->
                    Device.memset_nt t.dev cpu ~off:phys ~len:(min run (file_hi - file_lo))
                      '\000')
            | None -> ()
        in
        if clear_lo < off then zero_edge clear_lo (min off clear_hi);
        if clear_hi > off + len then zero_edge (max (off + len) clear_lo) clear_hi;
        cur := clear_hi
    | None -> (
        match Extent_tree.to_list unwritten with
        | [] -> cur := hi
        | _ ->
            (* Jump to the next unwritten range inside [cur, hi). *)
            let next =
              List.fold_left
                (fun acc (o, _) -> if o > !cur && o < acc then o else acc)
                hi
                (Extent_tree.to_list unwritten)
            in
            cur := next)
  done

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
        let src_b = Bytes.unsafe_of_string src in
        Device.with_site t.dev site_data (fun () ->
            let cur = ref off in
            while !cur < off + len do
              let phys, run = Option.get (Block_map.lookup f.bmap ~file_off:!cur) in
              let n = min (off + len - !cur) run in
              Device.write_nt t.dev cpu ~off:phys ~src:src_b
                ~src_off:(src_off + (!cur - off)) ~len:n;
              f.p.dirty_bytes <- f.p.dirty_bytes + n;
              cur := !cur + n
            done);
        if off + len > f.size then begin
          f.size <- off + len;
          meta_buffered t cpu ~addr:f.p.meta_addr ~bytes:32
        end);
    Counters.add t.ns.counters "fs.write_bytes" len;
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
        meta_sync t cpu ~addr:f.p.meta_addr ~bytes:64)

  let release t f = Dram_ns.free_blocks t.ns f
  let size _ (f : file) = f.size
  let log_bytes _ = 0
  let read_overlay _ _ _ ~off:_ ~len:_ _ = ()
  let pwrite_sub = pwrite_sub
end)

(* fsync: stop-the-world journal commit (JBD2) plus data flush of this
   file's dirty bytes. *)
let fsync t cpu fd =
  Cost.charge_syscall cpu;
  let f = Dram_ns.file_of_fd t.ns fd in
  if f.p.dirty_bytes > 0 then begin
    let lines = (f.p.dirty_bytes + Units.cacheline - 1) / Units.cacheline in
    Simclock.advance cpu.clock
      (int_of_float ((Device.cost t.dev).flush_ns *. float_of_int lines));
    Device.with_site t.dev site_fsync (fun () -> Device.fence t.dev cpu);
    f.p.dirty_bytes <- 0
  end;
  journal_fsync t cpu;
  Counters.incr t.ns.counters "fs.fsync"

let fallocate t cpu fd ~off ~len =
  let f = Dram_ns.fallocate_prologue t.ns cpu fd ~off ~len in
  Sched.with_lock f.lock (fun () ->
      ensure_backing t cpu f ~off ~len ~unwritten:(not t.preset.zero_on_fallocate);
      if off + len > f.size then begin
        f.size <- off + len;
        meta_buffered t cpu ~addr:f.p.meta_addr ~bytes:32
      end);
  Counters.incr t.ns.counters "fs.fallocate"

let ftruncate t cpu fd new_size =
  let f = Dram_ns.ftruncate_prologue t.ns cpu fd new_size in
  Sched.with_lock f.lock (fun () ->
      if new_size < f.size then begin
        let lo = Units.round_up new_size block in
        if f.size > lo then begin
          let freed = Block_map.remove_range f.bmap ~file_off:lo ~len:(f.size - lo) in
          List.iter (fun (o, l) -> Alloc.free t.ns.alloc ~off:o ~len:l) freed
        end
      end;
      f.size <- new_size;
      meta_sync t cpu ~addr:f.p.meta_addr ~bytes:64);
  Counters.incr t.ns.counters "fs.ftruncate"

(* ------------------------------------------------------------------ *)
(* mmap: hugepages only by accident (§2.5)                             *)

let fault_zero t cpu (f : file) ~file_off ~phys ~len =
  (* ext4-class zeroing on first fault into an unwritten extent. *)
  match f.p.unwritten with
  | None -> ()
  | Some unwritten ->
      if Extent_tree.extent_at unwritten ~off:file_off <> None then begin
        ignore (Extent_tree.alloc_exact unwritten ~off:file_off ~len);
        Device.with_site t.dev site_fault (fun () ->
            Device.memset_nt t.dev cpu ~off:phys ~len '\000';
            Device.fence t.dev cpu)
      end

let mmap_backing t fd : Vmem.backing =
  let ino = (Fd_table.get t.ns.fds fd).ino in
  fun cpu ~file_off ~huge_ok ->
    let f = Dram_ns.find_file t.ns ino in
    if huge_ok then begin
      match Block_map.huge_candidate f.bmap ~chunk_off:file_off with
      | Some phys ->
          fault_zero t cpu f ~file_off ~phys ~len:huge;
          Vmem.Huge phys
      | None ->
          if Block_map.lookup f.bmap ~file_off <> None then begin
            match Block_map.lookup f.bmap ~file_off with
            | Some (phys, _) ->
                fault_zero t cpu f ~file_off ~phys ~len:block;
                Vmem.Base phys
            | None -> Vmem.Sigbus
          end
          else if t.preset.huge_fault_alloc then begin
            (* ext4 DAX PMD fault: allocate 2MB, but with no alignment
               preference it rarely maps huge. *)
            Sched.with_lock f.lock (fun () ->
                ensure_backing t cpu f ~off:file_off ~len:huge ~unwritten:false);
            match Block_map.huge_candidate f.bmap ~chunk_off:file_off with
            | Some phys ->
                Device.with_site t.dev site_fault (fun () ->
                    Device.memset_nt t.dev cpu ~off:phys ~len:huge '\000';
                    Device.fence t.dev cpu);
                Vmem.Huge phys
            | None -> (
                match Block_map.lookup f.bmap ~file_off with
                | Some (phys, _) ->
                    Device.with_site t.dev site_fault (fun () ->
                        Device.memset_nt t.dev cpu ~off:phys ~len:block '\000';
                        Device.fence t.dev cpu);
                    Vmem.Base phys
                | None -> Vmem.Sigbus)
          end
          else begin
            Sched.with_lock f.lock (fun () ->
                ensure_backing t cpu f ~off:file_off ~len:block ~unwritten:false);
            match Block_map.lookup f.bmap ~file_off with
            | Some (phys, _) ->
                Device.with_site t.dev site_fault (fun () ->
                    Device.memset_nt t.dev cpu ~off:phys ~len:block '\000';
                    Device.fence t.dev cpu);
                Vmem.Base phys
            | None -> Vmem.Sigbus
          end
    end
    else begin
      match Block_map.lookup f.bmap ~file_off with
      | Some (phys, _) ->
          fault_zero t cpu f ~file_off ~phys ~len:block;
          Vmem.Base phys
      | None ->
          Sched.with_lock f.lock (fun () ->
              ensure_backing t cpu f ~off:file_off ~len:block ~unwritten:false);
          (match Block_map.lookup f.bmap ~file_off with
          | Some (phys, _) ->
              Device.with_site t.dev site_fault (fun () ->
                  Device.memset_nt t.dev cpu ~off:phys ~len:block '\000';
                  Device.fence t.dev cpu);
              Vmem.Base phys
          | None -> Vmem.Sigbus)
    end
