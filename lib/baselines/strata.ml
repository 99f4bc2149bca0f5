(** Strata model (Kwon et al., SOSP '17), restricted to its PM layer.

    Every process owns a private operation log: writes (data and metadata)
    append to it sequentially — fast and immediately durable, so fsync is
    nearly free.  Data only becomes visible in the shared area after
    {e digestion}, which copies it out of the log — the expensive extra
    copy the paper measures on the write path (§5.3).  Here each simulated
    CPU stands for a process; digestion triggers when a log fills or when
    visibility is needed (mmap), and the shared area uses a
    contiguity-first allocator with no alignment care, so log churn plus
    digestion fragment free space (§2.6). *)

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

(* Durability-lint sites: label Strata's persistence regions so
   sanitizer/faultcheck findings name the layer at fault. *)
let site_log = Site.v "strata" "log"
let site_digest = Site.v "strata" "digest"
let site_data = Site.v "strata" "data"
let site_fsync = Site.v "strata" "fsync"
let site_zero = Site.v "strata" "zero"
let site_fault = Site.v "strata" "fault"

let name = "Strata"
let block = Units.base_page
let huge = Units.huge_page

type pending_write = { p_ino : int; p_off : int; p_log_phys : int; p_len : int }

type plog = {
  base : int;
  size : int;
  mutable head : int;
  mutable entries : pending_write list; (* newest first *)
}

(* Inodes carry no payload: a file's block map holds its shared-area
   (digested) extents, its pending bytes live in the process logs. *)
type file = unit Dram_ns.file

type t = {
  dev : Device.t;
  cfg : Types.config;
  logs : plog array; (* one per CPU ("process") *)
  ns : unit Dram_ns.t;
}

let format dev (cfg : Types.config) =
  let size = Device.size dev in
  let log_size = Units.round_up (max (256 * Units.kib) (size / 16 / cfg.cpus)) block in
  let logs_total = cfg.cpus * log_size in
  let data_off = Units.round_up (4096 + logs_total) huge in
  if data_off + huge > size then invalid_arg "Strata: device too small";
  let data_len = size - data_off in
  let alloc_cfg =
    { Alloc.per_cpu = false; policy = Alloc.Best_fit; align_exact_2m = false; normalize_pow2 = false }
  in
  {
    dev;
    cfg;
    logs =
      Array.init cfg.cpus (fun i ->
          { base = 4096 + (i * log_size); size = log_size; head = 0; entries = [] });
    ns =
      Dram_ns.init
        ~alloc:(Alloc.create alloc_cfg ~cpus:1 ~regions:[| (data_off, data_len) |])
        ~capacity:data_len ~dir_policy:Dram_rbtree ~root:() ~payload:ignore;
  }

let device t = t.dev
let config t = t.cfg

let log_of t (cpu : Cpu.t) = t.logs.(cpu.id mod t.cfg.cpus)

(* Append a metadata record to the process log (64B, durable). *)
let log_meta t cpu =
  let lg = log_of t cpu in
  if lg.head + 64 > lg.size then lg.head <- 0;
  Device.with_site t.dev site_log (fun () ->
      Device.write t.dev cpu ~off:(lg.base + lg.head) ~src:(Bytes.make 64 '\002') ~src_off:0
        ~len:64;
      Device.persist t.dev cpu ~off:(lg.base + lg.head) ~len:64);
  lg.head <- lg.head + 64;
  Stats.count "fs.log_meta" 1

(* Digest one process log: copy pending data into the shared area and
   update the block maps — the visible-data copy cost. *)
let digest t cpu lg =
  let pending = List.rev lg.entries in
  lg.entries <- [];
  lg.head <- 0;
  List.iter
    (fun p ->
      match Hashtbl.find_opt t.ns.files p.p_ino with
      | None -> () (* file deleted before digestion *)
      | Some f ->
          let blo = Units.round_down p.p_off block in
          let bhi = Units.round_up (p.p_off + p.p_len) block in
          let exts = Dram_ns.alloc t.ns ~cpu:0 ~len:(bhi - blo) in
          (* Preserve previously digested bytes of partial blocks. *)
          let fo = ref blo in
          List.iter
            (fun (e : Alloc.extent) ->
              ignore
                (Dram_ns.preserve t.dev cpu ~site:site_digest f ~off:!fo ~len:e.len ~dst:e.off);
              fo := !fo + e.len)
            exts;
          Device.with_site t.dev site_digest (fun () ->
              (* Copy the logged data over the fresh blocks. *)
              let in_piece = p.p_off - blo in
              (match exts with
              | [ e ] ->
                  Device.copy_within_nt t.dev cpu ~src:p.p_log_phys ~dst:(e.off + in_piece)
                    ~len:p.p_len
              | exts ->
                  (* Multi-extent digestion: copy piecewise. *)
                  let remaining = ref p.p_len and src = ref p.p_log_phys and fo = ref p.p_off in
                  List.iter
                    (fun (e : Alloc.extent) ->
                      let piece_lo = max !fo blo and piece_hi = min (p.p_off + p.p_len) (blo + e.len) in
                      if piece_hi > piece_lo && !remaining > 0 then begin
                        let n = min !remaining (piece_hi - piece_lo) in
                        Device.copy_within_nt t.dev cpu ~src:!src ~dst:(e.off + (piece_lo - blo))
                          ~len:n;
                        src := !src + n;
                        remaining := !remaining - n;
                        fo := !fo + n
                      end)
                    exts);
              Device.fence t.dev cpu);
          Stats.count "fs.digested_bytes" p.p_len;
          Dram_ns.remap t.ns f ~file_off:blo ~len:(bhi - blo) exts ~commit:ignore)
    pending;
  Stats.count "fs.digests" 1

let digest_all t cpu = Array.iter (fun lg -> if lg.entries <> [] then digest t cpu lg) t.logs

let unmount t cpu = digest_all t cpu

(* ------------------------------------------------------------------ *)
(* Namespace: log append first, then the DRAM dentry update            *)

let log_then t cpu update =
  log_meta t cpu;
  update ()

let drop_pending t ino =
  Array.iter
    (fun lg -> lg.entries <- List.filter (fun p -> p.p_ino <> ino) lg.entries)
    t.logs

let pending_size t ino =
  Array.fold_left
    (fun acc lg ->
      List.fold_left
        (fun acc p -> if p.p_ino = ino then max acc (p.p_off + p.p_len) else acc)
        acc lg.entries)
    0 t.logs

(* Overlay pending log entries on the shared-area bytes (newest last so
   they win). *)
let read_pending t cpu (f : file) ~off ~len dst =
  Array.iter
    (fun lg ->
      List.iter
        (fun p ->
          if p.p_ino = f.ino then begin
            let lo = max off p.p_off and hi = min (off + len) (p.p_off + p.p_len) in
            if hi > lo then
              Device.read t.dev cpu ~off:(p.p_log_phys + (lo - p.p_off)) ~len:(hi - lo) ~dst
                ~dst_off:(lo - off)
          end)
        (List.rev lg.entries))
    t.logs

(* ------------------------------------------------------------------ *)
(* Data: log-append writes, digestion on pressure                      *)

let pwrite_sub t cpu fd ~off ~src ~src_off ~len =
  let f = Dram_ns.write_prologue t.ns cpu fd ~off ~src ~src_off ~len in
  if len = 0 then 0
  else begin
    let lg = log_of t cpu in
    (* Writes bigger than the log split into log-sized pieces, digesting
       between them (Strata's large writes stream through the log). *)
    let piece_max = max 64 (lg.size / 2 / 64 * 64) in
    let cur = ref 0 in
    while !cur < len do
      let n = min piece_max (len - !cur) in
      if lg.head + n + 64 > lg.size then digest t cpu lg;
      let phys = lg.base + lg.head in
      Device.with_site t.dev site_data (fun () ->
          Device.write_string_nt t.dev cpu ~off:phys ~src ~src_off:(src_off + !cur) ~len:n;
          Device.fence t.dev cpu);
      lg.head <- lg.head + Units.round_up n 64;
      lg.entries <-
        { p_ino = f.ino; p_off = off + !cur; p_log_phys = phys; p_len = n } :: lg.entries;
      cur := !cur + n
    done;
    if off + len > f.size then f.size <- off + len;
    Stats.count "fs.write_bytes" len;
    len
  end

include Dram_ns.Make (struct
  type nonrec t = t
  type payload = unit

  let ns t = t.ns
  let device = device
  let persist_link t cpu ~parent:_ _ update = log_then t cpu update
  let persist_unlink = persist_link
  let persist_rmdir = persist_link
  let persist_rename t cpu ~src:_ ~dst:_ update = log_then t cpu update

  (* O_TRUNC takes no inode lock, unlike ftruncate: a known quirk of the
     model, kept so its behaviour does not change. *)
  let persist_truncate t cpu (f : file) update =
    drop_pending t f.ino;
    update ();
    log_meta t cpu

  let release t (f : file) =
    drop_pending t f.ino;
    Dram_ns.free_blocks t.ns f

  let size t (f : file) = max f.size (pending_size t f.ino)
  let log_bytes _ = 0
  let read_overlay = read_pending
  let pwrite_sub = pwrite_sub
end)

(* fsync is cheap: the log is already durable. *)
let fsync t cpu _fd =
  Cost.charge_syscall cpu;
  Device.with_site t.dev site_fsync (fun () -> Device.fence t.dev cpu);
  Stats.count "fs.fsync" 1

(* Back the holes of [off, off+len) from the shared area, zeroed, one fence. *)
let back t cpu (f : file) ~site ~off ~len =
  Dram_ns.iter_holes f ~off ~len (fun ~off ~len ->
      let exts = Dram_ns.alloc t.ns ~cpu:0 ~len in
      Dram_ns.map_extents f ~file_off:off exts;
      Device.with_site t.dev site (fun () ->
          List.iter
            (fun (e : Alloc.extent) -> Device.memset_nt t.dev cpu ~off:e.off ~len:e.len '\000')
            exts;
          Device.fence t.dev cpu))

let fallocate t cpu fd ~off ~len =
  let f = Dram_ns.fallocate_prologue t.ns cpu fd ~off ~len in
  Sched.with_lock f.lock (fun () ->
      back t cpu f ~site:site_zero ~off ~len;
      if off + len > f.size then f.size <- off + len);
  Stats.count "fs.fallocate" 1

let ftruncate t cpu fd new_size =
  let f = Dram_ns.ftruncate_prologue t.ns cpu fd new_size in
  (* Pending log entries must become visible before the size change. *)
  digest_all t cpu;
  Sched.with_lock f.lock (fun () ->
      ignore (Dram_ns.shrink t.dev cpu ~site:site_zero t.ns f new_size : int option);
      f.size <- new_size;
      log_meta t cpu);
  Stats.count "fs.ftruncate" 1

(* Strata takes the inode lock on every base-page fault, even when the
   page is already mapped. *)
let touch _ (f : file) ~fresh ~file_off:_ ~phys:_ ~len =
  if (not fresh) && len = block then Sched.with_lock f.lock ignore

(* mmap requires digestion first (data must be in the shared area). *)
let mmap_backing t fd : Vmem.backing =
  let ino = (Fd_table.get t.ns.fds fd).ino in
  let fill cpu f ~off ~len = back t cpu f ~site:site_fault ~off ~len in
  fun cpu ~file_off ~huge_ok ->
    digest_all t cpu;
    Dram_ns.fault cpu (Dram_ns.find_file t.ns ino) ~file_off ~huge_ok ~fill_len:block ~fill
      ~touch
