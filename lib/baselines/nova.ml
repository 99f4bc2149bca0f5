(** NOVA model (Xu & Swanson, FAST '16), the paper's main competitor.

    Log-structured metadata: every inode owns a log — a chain of 4KB pages
    {e allocated from the data area} — to which 64B entries are appended
    (file-write entries, dentry entries, attribute entries).  This is the
    design the paper blames for fragmentation: per-inode log pages pepper
    free space and break up aligned extents (§2.6, §3.4, Figure 3).

    Data updates are copy-on-write at 4KB granularity in strict mode
    (atomic data), with the WiredTiger-visible consequence that appends at
    unaligned offsets copy the partial tail block to a fresh block (§5.5).
    Allocation is per-CPU first-fit and attempts 2MB alignment only when a
    request is an exact multiple of 2MB (§6).  [fallocate] zeroes eagerly,
    so page faults only build mappings — cheaper faults than ext4 (§5.4).
    Log growth beyond a threshold triggers compaction (fast GC), charging
    copies and churning free space. *)

open Repro_util
module Device = Repro_pmem.Device
module Vmem = Repro_memsim.Vmem
module Sched = Repro_sched.Sched
module Types = Repro_vfs.Types
module Fd_table = Repro_vfs.Fd_table
module Cost = Repro_vfs.Fs_intf.Cost
module Alloc = Repro_alloc.Pool_alloc
module Site = Repro_pmem.Site
module Stats = Repro_stats.Stats

(* Durability-lint sites: label NOVA's persistence regions so
   sanitizer/faultcheck findings name the layer at fault. *)
let site_log = Site.v "nova" "log"
let site_gc = Site.v "nova" "gc"
let site_zero = Site.v "nova" "zero"
let site_cow = Site.v "nova" "cow"
let site_data = Site.v "nova" "data"
let site_fsync = Site.v "nova" "fsync"

let name = "NOVA"
let huge = Units.huge_page
let block = Units.base_page
let log_entry_bytes = 64
let entries_per_page = (block - 16) / log_entry_bytes (* 16B page header: next ptr *)

type log = {
  mutable pages : int list; (* phys addrs, chain order *)
  mutable tail : int; (* entries appended in the last page *)
  mutable live : int;
  mutable dead : int;
}

type payload = { log : log; mutable dirty_bytes : int }
type file = payload Dram_ns.file
type t = { dev : Device.t; cfg : Types.config; ns : payload Dram_ns.t }

(* ------------------------------------------------------------------ *)
(* Per-inode log                                                       *)

let alloc_cpu t (cpu : Cpu.t) = cpu.id mod t.cfg.cpus

let alloc_block t cpu =
  match Alloc.alloc t.ns.alloc ~cpu:(alloc_cpu t cpu) ~len:block with
  | Some [ e ] -> e.Alloc.off
  | Some exts ->
      List.iter (fun (e : Alloc.extent) -> Alloc.free t.ns.alloc ~off:e.off ~len:e.len) exts;
      Types.err ENOSPC "log page allocation"
  | None -> Types.err ENOSPC "log page allocation"

(* Append one 64B entry to the inode log: write + persist the entry, then
   persist the 8B tail-pointer update — NOVA's commit protocol. *)
let log_append t cpu (f : file) =
  let lg = f.p.log in
  (if lg.pages = [] || lg.tail >= entries_per_page then begin
     let page = alloc_block t cpu in
     (* Link from the previous page (8B pointer write + persist). *)
     (match List.rev lg.pages with
     | last :: _ ->
         Device.with_site t.dev site_log (fun () ->
             Device.write_u64 t.dev cpu ~off:last (Int64.of_int page))
     | [] -> ());
     lg.pages <- lg.pages @ [ page ];
     lg.tail <- 0;
     Stats.count "fs.log_pages" 1
   end);
  let page = List.nth lg.pages (List.length lg.pages - 1) in
  let off = page + 16 + (lg.tail * log_entry_bytes) in
  Device.with_site t.dev site_log (fun () ->
      Device.write t.dev cpu ~off ~src:(Bytes.make log_entry_bytes '\001') ~src_off:0
        ~len:log_entry_bytes;
      Device.persist t.dev cpu ~off ~len:log_entry_bytes;
      (* Tail pointer in the inode (modelled at the page header). *)
      Device.write_u64 t.dev cpu ~off:page (Int64.of_int lg.tail);
      Device.persist t.dev cpu ~off:page ~len:8);
  lg.tail <- lg.tail + 1;
  lg.live <- lg.live + 1;
  Stats.count "fs.log_appends" 1

(* Invalidating superseded entries is a PM write per entry (NOVA sets an
   invalid bit in the old entry and persists it) — part of why overwrites
   cost more on NOVA (§5.5). *)
let log_invalidate t cpu (f : file) n =
  let lg = f.p.log in
  lg.live <- max 0 (lg.live - n);
  lg.dead <- lg.dead + n;
  (match lg.pages with
  | page :: _ ->
      Device.with_site t.dev site_log (fun () ->
          for _ = 1 to n do
            Device.write_u64 t.dev cpu ~off:(page + 8) 1L;
            Device.persist t.dev cpu ~off:(page + 8) ~len:8
          done)
  | [] -> ());
  Stats.count "fs.log_invalidations" n

(* Fast GC: when a log is mostly dead, copy live entries to fresh pages
   and free the old ones — free-space churn that competes with foreground
   work (§2.6). *)
let maybe_gc t cpu (f : file) =
  let lg = f.p.log in
  let page_count = List.length lg.pages in
  if page_count > 4 && lg.dead > lg.live * 2 then begin
    let live_pages = max 1 ((lg.live + entries_per_page - 1) / entries_per_page) in
    let fresh = List.init live_pages (fun _ -> alloc_block t cpu) in
    (* Copy live entries (charges device traffic). *)
    Device.with_site t.dev site_gc (fun () ->
        List.iter
          (fun page ->
            Device.copy_within_nt t.dev cpu ~src:(List.hd lg.pages) ~dst:page ~len:block)
          fresh;
        Device.fence t.dev cpu);
    List.iter (fun p -> Alloc.free t.ns.alloc ~off:p ~len:block) lg.pages;
    lg.pages <- fresh;
    lg.tail <- lg.live mod entries_per_page;
    lg.dead <- 0;
    Stats.count "fs.log_gc" 1
  end

let free_log t (f : file) =
  List.iter (fun p -> Alloc.free t.ns.alloc ~off:p ~len:block) f.p.log.pages;
  f.p.log.pages <- []

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let format dev (cfg : Types.config) =
  let size = Device.size dev in
  (* Inode tables are per-CPU fixed regions; the rest is the data area,
     2MB-aligned so alignment is possible in principle. *)
  let tables = Units.round_up (cfg.cpus * cfg.inodes_per_cpu * 128) block in
  let data_off = Units.round_up (4096 + tables) huge in
  if data_off + huge > size then invalid_arg "NOVA: device too small";
  let data_len = size - data_off in
  let stripe = data_len / cfg.cpus in
  let regions =
    Array.init cfg.cpus (fun i ->
        (data_off + (i * stripe), if i = cfg.cpus - 1 then data_len - ((cfg.cpus - 1) * stripe) else stripe))
  in
  let alloc_cfg =
    {
      Alloc.per_cpu = true;
      policy = Alloc.First_fit;
      align_exact_2m = true;
      normalize_pow2 = false;
    }
  in
  let payload _ = { log = { pages = []; tail = 0; live = 0; dead = 0 }; dirty_bytes = 0 } in
  {
    dev;
    cfg;
    ns =
      Dram_ns.init
        ~alloc:(Alloc.create alloc_cfg ~cpus:cfg.cpus ~regions)
        ~capacity:data_len ~dir_policy:Dram_rbtree ~root:(payload ()) ~payload;
  }

let unmount _t _cpu = ()
let device t = t.dev
let config t = t.cfg

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)

let allocate t cpu ~len = Dram_ns.alloc t.ns ~cpu:(alloc_cpu t cpu) ~len

let ensure_backing t cpu (f : file) ~off ~len ~zero =
  Dram_ns.iter_holes f ~off ~len (fun ~off ~len ->
      let exts = allocate t cpu ~len in
      Dram_ns.map_extents f ~file_off:off exts;
      if zero then
        List.iter
          (fun (e : Alloc.extent) ->
            Dram_ns.zero_extent t.dev cpu ~site:site_zero ~off:e.off ~len:e.len)
          exts;
      log_append t cpu f)

(* ------------------------------------------------------------------ *)
(* Namespace: log entries first, then the DRAM dentry update           *)

(* The inode-init entry in the new inode's log, the dentry entry in the
   parent's. *)
let log_link t cpu ~parent f update =
  log_append t cpu f;
  log_append t cpu parent;
  update ()

(* A delete-dentry entry, superseding the parent's old dentry entry. *)
let log_unlink t cpu ~parent _ update =
  log_append t cpu parent;
  log_invalidate t cpu parent 1;
  maybe_gc t cpu parent;
  update ()

let free_file_space t (f : file) =
  Dram_ns.free_blocks t.ns f;
  free_log t f

(* Unlike unlink, no log GC of the parent — but the directory's own log
   pages are freed (the only engine that frees anything on rmdir). *)
let log_rmdir t cpu ~parent f update =
  log_append t cpu parent;
  log_invalidate t cpu parent 1;
  update ();
  free_file_space t f

(* NOVA journals renames across the two inode logs with a small
   dedicated journal; model as two log appends. *)
let log_rename t cpu ~src ~dst update =
  log_append t cpu src;
  log_append t cpu dst;
  log_invalidate t cpu src 1;
  update ()

(* ------------------------------------------------------------------ *)
(* Data path                                                           *)

let strict t = t.cfg.mode = Types.Strict

(* Strict-mode write: copy-on-write at 4KB granularity.  Partial head and
   tail blocks are copied into the fresh blocks before overlaying new
   data — the write amplification the paper observes on WiredTiger
   appends (§5.5). *)
let write_cow t cpu (f : file) ~off ~src ~src_off ~len =
  let blo = Units.round_down off block and bhi = Units.round_up (off + len) block in
  let exts = allocate t cpu ~len:(bhi - blo) in
  let pf = ref blo in
  List.iter
    (fun (e : Alloc.extent) ->
      let ov_lo = max !pf off and ov_hi = min (!pf + e.len) (off + len) in
      (* Preserve only the uncovered block edges (NOVA copies partial
         blocks, not data the write replaces). *)
      let preserve lo hi =
        Dram_ns.preserve t.dev cpu ~site:site_cow f ~off:lo ~len:(hi - lo) ~dst:(e.off + (lo - !pf))
      in
      let head = preserve !pf (min ov_lo (!pf + e.len)) in
      let copied = head + preserve (max ov_hi !pf) (!pf + e.len) in
      if copied > 0 then Stats.count "fs.cow_copy_bytes" copied;
      Device.with_site t.dev site_cow (fun () ->
          if ov_hi > ov_lo then
            Device.write_string_nt t.dev cpu ~off:(e.off + (ov_lo - !pf)) ~src
              ~src_off:(src_off + (ov_lo - off)) ~len:(ov_hi - ov_lo);
          Device.fence t.dev cpu);
      pf := !pf + e.len)
    exts;
  (* Commit: append a write entry and invalidate the superseded ones
     before the old blocks are freed. *)
  Dram_ns.remap t.ns f ~file_off:blo ~len:(bhi - blo) exts ~commit:(fun superseded ->
      log_append t cpu f;
      log_invalidate t cpu f superseded;
      maybe_gc t cpu f)

let pwrite_sub t cpu fd ~off ~src ~src_off ~len =
  let f = Dram_ns.write_prologue t.ns cpu fd ~off ~src ~src_off ~len in
  if len = 0 then 0
  else begin
    Sched.with_lock f.lock (fun () ->
        if strict t then write_cow t cpu f ~off ~src ~src_off ~len
        else begin
          ensure_backing t cpu f ~off ~len ~zero:false;
          Dram_ns.write_mapped t.dev cpu ~site:site_data f ~off ~src ~src_off ~len;
          f.p.dirty_bytes <- f.p.dirty_bytes + len;
          log_append t cpu f
        end;
        if off + len > f.size then f.size <- off + len);
    Stats.count "fs.write_bytes" len;
    len
  end

include Dram_ns.Make (struct
  type nonrec t = t
  type nonrec payload = payload

  let ns t = t.ns
  let device = device
  let persist_link = log_link
  let persist_unlink = log_unlink
  let persist_rmdir = log_rmdir
  let persist_rename = log_rename

  (* O_TRUNC frees the block map but keeps the inode log. *)
  let persist_truncate t cpu (f : file) update =
    Sched.with_lock f.lock (fun () ->
        update ();
        log_append t cpu f)

  let release = free_file_space
  let size _ (f : file) = f.size
  let log_bytes (f : file) = List.length f.p.log.pages * block
  let read_overlay _ _ _ ~off:_ ~len:_ _ = ()
  let pwrite_sub = pwrite_sub
end)

(* Strict-mode writes are copy-on-write and fenced, so only relaxed
   mode leaves dirty bytes to flush. *)
let fsync t cpu fd =
  Cost.charge_syscall cpu;
  let f = Dram_ns.file_of_fd t.ns fd in
  Dram_ns.flush_dirty t.dev cpu ~site:site_fsync f.p.dirty_bytes;
  f.p.dirty_bytes <- 0;
  Stats.count "fs.fsync" 1

let fallocate t cpu fd ~off ~len =
  let f = Dram_ns.fallocate_prologue t.ns cpu fd ~off ~len in
  Sched.with_lock f.lock (fun () ->
      (* NOVA zeroes at fallocate; faults then only build page tables. *)
      ensure_backing t cpu f ~off ~len ~zero:true;
      if off + len > f.size then f.size <- off + len);
  Stats.count "fs.fallocate" 1

let ftruncate t cpu fd new_size =
  let f = Dram_ns.ftruncate_prologue t.ns cpu fd new_size in
  Sched.with_lock f.lock (fun () ->
      (* Each freed run supersedes a write entry. *)
      Option.iter (log_invalidate t cpu f)
        (Dram_ns.shrink t.dev cpu ~site:site_zero t.ns f new_size);
      f.size <- new_size;
      log_append t cpu f);
  Stats.count "fs.ftruncate" 1

(* ------------------------------------------------------------------ *)
(* mmap: hugepage only when an extent happens to be 2MB-aligned        *)

let mmap_backing t fd : Vmem.backing =
  let ino = (Fd_table.get t.ns.fds fd).ino in
  let fill cpu f ~off ~len = ensure_backing t cpu f ~off ~len ~zero:true in
  fun cpu ~file_off ~huge_ok ->
    Dram_ns.fault cpu (Dram_ns.find_file t.ns ino) ~file_off ~huge_ok ~fill_len:block ~fill
      ~touch:(fun _ _ ~fresh:_ ~file_off:_ ~phys:_ ~len:_ -> ())
