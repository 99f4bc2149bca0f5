(** WineFS — the paper's hugepage-aware PM file system (§3).

    The orchestrating facade over the five core layers: {!Txn} (per-CPU
    undo journaling, §3.4), {!Inode} (on-PM inode tables, §3.3),
    {!Extent_map} (record/slot run map + metadata-block pool, §3.3),
    {!Datapath} (hybrid data atomicity and the hugepage fault path,
    §3.5/§3.6) and {!Namespace} (paths, dentries, journaled namespace
    operations).  The facade owns format/mount/unmount, the fd table,
    the rewrite queue and the per-operation syscall wrappers (stats
    span, simulated syscall cost, EROFS guard); everything
    mechanism-specific lives in the layers.  All counts but the mount's
    fault tally go to the {!Stats} registry.  DESIGN.md §10
    has the module/ownership diagram. *)

open Repro_util
module Device = Repro_pmem.Device
module Vmem = Repro_memsim.Vmem
module Sched = Repro_sched.Sched
module Types = Repro_vfs.Types
module Fd_table = Repro_vfs.Fd_table
module Degraded = Repro_vfs.Degraded
module Cost = Repro_vfs.Fs_intf.Cost
module Alloc = Repro_alloc.Aligned_alloc
module Extent_tree = Repro_rbtree.Extent_tree
module Int_map = Repro_rbtree.Ordmap.Int_map
module Stats = Repro_stats.Stats

let name = "WineFS"
let huge = Units.huge_page
let block = Units.base_page
let root_ino = Namespace.root_ino

(* Durability-lint site labels for the PM accesses the facade itself
   issues (the layers carry their own). *)
module Site = Repro_pmem.Site

let site_sb = Site.v "core" "superblock"
let site_serial = Site.v "core" "serial"
let site_format = Site.v "core" "format"
let site_rewrite = Site.v "core" "rewrite"
let site_mount = Site.v "core" "mount"

type t = {
  dev : Device.t;
  cfg : Types.config;
  layout : Layout.t;
  txns : Txn.t;
  inodes : Inode.t;
  map : Extent_map.t;
  data : Datapath.t;
  ns : Namespace.t;
  alloc : Alloc.t;
  fds : Fd_table.t;
  faults : Degraded.tally;
  mutable rewrite_queue : int list; (* inos queued for reactive rewriting *)
  mutable recovery_ns : int;
  mutable read_only : bool;
      (* degraded mount: corruption was detected that could not be
         repaired; every mutating operation fails with EROFS *)
}

let require_writable t = Degraded.require_writable ~read_only:t.read_only
let note ~obj ~write ~site = if Sched.monitored () then Sched.access ~obj ~write ~site
let acpu t (cpu : Cpu.t) = cpu.id mod t.cfg.Types.cpus

(* Build the layer stack bottom-up over an already-recovered journal set,
   allocator and inode layer (mount passes the one its scan populated).
   The data path shares the facade's fault tally. *)
let assemble dev cfg layout txns alloc inodes =
  let faults = { Degraded.detected = 0; repaired = 0; refused = 0 } in
  let map = Extent_map.create ~dev ~layout ~txns ~inodes ~alloc in
  let data = Datapath.create ~dev ~cfg ~txns ~inodes ~map ~alloc ~faults in
  let ns = Namespace.create ~dev ~txns ~inodes ~map in
  {
    dev;
    cfg;
    layout;
    txns;
    inodes;
    map;
    data;
    ns;
    alloc;
    fds = Fd_table.create ();
    faults;
    rewrite_queue = [];
    recovery_ns = 0;
    read_only = false;
  }

(* ------------------------------------------------------------------ *)
(* Format and mount                                                    *)

let write_sb t cpu ~clean =
  let sb =
    {
      Codec.Superblock.size = t.layout.size;
      cpus = t.cfg.cpus;
      inodes_per_cpu = t.layout.inodes_per_cpu;
      mode_strict = Types.is_strict t.cfg.mode;
      clean;
    }
  in
  let b = Codec.Superblock.encode sb in
  (* Primary + replica, both persisted at write time: mount's recovery
     reads must only ever see durable copies, and either copy can repair
     the other. *)
  Device.with_site t.dev site_sb (fun () ->
      Device.write t.dev cpu ~off:0 ~src:b ~src_off:0 ~len:(Bytes.length b);
      Device.persist t.dev cpu ~off:0 ~len:(Bytes.length b);
      Device.write t.dev cpu ~off:Layout.sb_replica_off ~src:b ~src_off:0
        ~len:(Bytes.length b);
      Device.persist t.dev cpu ~off:Layout.sb_replica_off ~len:(Bytes.length b))

let invalidate_serial t cpu =
  Device.with_site t.dev site_serial @@ fun () ->
  Device.write t.dev cpu ~off:t.layout.serial_off ~src:Codec.Serial.invalid ~src_off:0
    ~len:(Bytes.length Codec.Serial.invalid);
  Device.persist t.dev cpu ~off:t.layout.serial_off ~len:(Bytes.length Codec.Serial.invalid)

let format dev cfg =
  let cpu = Cpu.make ~id:0 () in
  let layout =
    Layout.compute ~size:(Device.size dev) ~cpus:cfg.Types.cpus
      ~inodes_per_cpu:cfg.inodes_per_cpu
  in
  let cfg = { cfg with Types.inodes_per_cpu = layout.inodes_per_cpu } in
  (* Zero inode tables so invalid inodes parse as invalid; the zeroes must
     be durable — mount scans the tables, and a crash between format and
     the first inode write would otherwise parse stale bytes as inodes. *)
  Device.with_site dev site_format (fun () ->
      Array.iter
        (fun off ->
          let len = layout.inodes_per_cpu * Layout.inode_bytes in
          Device.memset dev cpu ~off ~len '\000';
          Device.persist dev cpu ~off ~len)
        layout.inode_table_off);
  let txns = Txn.format dev cpu layout in
  let alloc = Alloc.create ~cpus:cfg.cpus ~regions:layout.stripes in
  let t = assemble dev cfg layout txns alloc (Inode.create ~dev ~layout ~txns) in
  Inode.init_free t.inodes;
  Extent_map.seed_meta_pool t.map;
  (* Root directory (cpu 0, idx 0 -> ino 1). *)
  let root = Inode.install t.inodes root_ino Types.Directory in
  Inode.init_slots t.inodes cpu root_ino;
  Txn.with_txn t.txns cpu ~reserve:4 (fun txn -> Inode.persist_header t.inodes cpu txn root);
  invalidate_serial t cpu;
  write_sb t cpu ~clean:false;
  t

(* Mount: recover journals, rebuild DRAM indexes by scanning the inode
   tables and directory blocks, restore or rebuild the allocator. *)
let mount dev cfg =
  Device.with_site dev site_mount @@ fun () ->
  let cpu = Cpu.make ~id:0 () in
  let t0 = Simclock.now cpu.clock in
  (* Everything read from here until the state is rebuilt is recovery
     input: the lint flags any line that was not durable. *)
  Device.annotate dev Recovery_begin;
  (* Scrub bookkeeping: every corruption the mount encounters is counted
     as detected, then either repaired (from a redundant copy) or refused
     (the object is refused and the mount degrades to read-only). *)
  let detected = ref 0 and repaired = ref 0 and refused = ref 0 in
  (* Superblock: primary at 0, replica at Layout.sb_replica_off.  Either
     good copy repairs the other in place (a full-line store clears
     poison). *)
  let sb_repair off sb =
    let b = Codec.Superblock.encode sb in
    Device.write dev cpu ~off ~src:b ~src_off:0 ~len:(Bytes.length b);
    Device.persist dev cpu ~off ~len:(Bytes.length b);
    incr repaired
  in
  let sb =
    Layout.read_superblock dev cpu ~reconcile:(function
      | `Ok sb, `Ok _ -> sb
      | `Ok sb, (`Bad_csum | `Bad_magic) ->
          incr detected;
          sb_repair Layout.sb_replica_off sb;
          sb
      | (`Bad_csum | `Bad_magic), `Ok sb ->
          incr detected;
          sb_repair 0 sb;
          sb
      | `Bad_magic, `Bad_magic -> Types.err EINVAL "not a WineFS image"
      | _ ->
          incr detected;
          incr refused;
          Types.err EIO "superblock corrupt in both copies")
  in
  let cfg = { cfg with Types.cpus = sb.cpus; inodes_per_cpu = sb.inodes_per_cpu } in
  let layout = Layout.compute ~size:sb.size ~cpus:sb.cpus ~inodes_per_cpu:sb.inodes_per_cpu in
  (* Phase 1: journal recovery — roll back unfinished transactions in
     descending global txn-id order (§3.6 "Journal Recovery"). *)
  let txns = Txn.attach dev layout in
  let r = Txn.recover txns cpu in
  detected := !detected + r.refused_journals + r.csum_failures;
  refused := !refused + r.refused_journals;
  repaired := !repaired + r.csum_failures;
  (* Phase 2: scan the per-CPU inode tables (parallel in the paper; the
     simulated cost model charges the reads). *)
  let inodes = Inode.create ~dev ~layout ~txns in
  let dirs, used =
    Inode.scan_tables inodes cpu ~on_refuse:(fun _ino _why ->
        incr detected;
        incr refused)
  in
  if Inode.is_bad inodes root_ino then Types.err EIO "corrupt image: root inode refused";
  if Option.is_none (Inode.find_opt inodes root_ino) then
    Types.err EINVAL "corrupt image: no root";
  (* Phase 3: allocator — from the serialized free list when the unmount
     was clean, otherwise recomputed from the used-extent set.  The
     recompute runs on every mount: extent slots carry no checksum, and
     it refuses one that leaves its region or overlaps another.  Nor does
     the serial area: its extents must lie inside the recomputed ones. *)
  let serial_ok =
    if not sb.clean then None
    else begin
      let buf = Bytes.create layout.serial_len in
      match Device.read dev cpu ~off:layout.serial_off ~len:layout.serial_len ~dst:buf ~dst_off:0 with
      | () -> Codec.Serial.decode buf
      | exception Device.Media_error _ ->
          (* The serialized free list is redundant with a scan: repair by
             recomputing from the used-extent set. *)
          incr detected;
          incr repaired;
          None
    end
  in
  (* Metadata-region blocks rebuild their own free list; data extents
     rebuild the alignment-aware allocator (one tree per stripe, so free
     space never coalesces across stripe boundaries). *)
  let meta_shadow = Extent_tree.create () in
  Extent_tree.insert_free meta_shadow ~off:layout.meta_pool_off ~len:layout.meta_pool_len;
  let data_used = Inode.split_used inodes used ~meta:meta_shadow in
  let free_list =
    match (Alloc.free_lists_of_used ~regions:layout.stripes ~used:data_used, serial_ok) with
    | Error m, _ -> Types.err EINVAL "corrupt image: %s" m
    | Ok l, None -> l
    | Ok l, Some serial ->
        (match Alloc.first_not_free ~free:l serial with
        | Some (off, len) ->
            Types.err EINVAL "corrupt image: serialized free extent [%d,%d) not free" off
              (off + len)
        | None -> ());
        serial
  in
  let alloc = Alloc.restore ~cpus:sb.cpus ~regions:layout.stripes ~free:free_list in
  (* Layer assembly reuses the scanned inode layer. *)
  let t = assemble dev cfg layout txns alloc inodes in
  Extent_tree.iter meta_shadow (fun ~off ~len -> Extent_map.add_meta_free t.map ~off ~len);
  (* Directory indexes (reads only — safe after layer assembly).  A dentry
     block on a poisoned line refuses the directory (paths through it then
     fail with EIO) but not the mount.  Directories load in table order. *)
  List.iter
    (fun (f : Inode.file) ->
      try Namespace.load_dir_index t.ns cpu f
      with Device.Media_error _ ->
        if f.ino = root_ino then Types.err EIO "corrupt image: root directory unreadable";
        incr detected;
        incr refused;
        Inode.refuse t.inodes f.ino "media error reading directory blocks")
    dirs;
  Device.annotate dev Recovery_end;
  t.read_only <- !refused > 0;
  Degraded.count_fault t.faults ~detected:!detected ~repaired:!repaired ~refused:!refused;
  (* A degraded mount must not write: the dirty-superblock stamp and the
     serial-area invalidation are both mutations. *)
  if not t.read_only then begin
    invalidate_serial t cpu;
    write_sb t cpu ~clean:false
  end;
  t.recovery_ns <- Simclock.now cpu.clock - t0;
  t

let unmount t cpu =
  if t.read_only then ()
  else begin
    (* Serialize the allocator free lists (§3.6 "Crash Recovery and
       unmount"); fall back to scan-on-mount when they do not fit. *)
    (match Codec.Serial.encode (Alloc.snapshot t.alloc) ~capacity_bytes:t.layout.serial_len with
    | Some b ->
        Device.with_site t.dev site_serial (fun () ->
            Device.write t.dev cpu ~off:t.layout.serial_off ~src:b ~src_off:0
              ~len:(Bytes.length b);
            Device.persist t.dev cpu ~off:t.layout.serial_off ~len:(Bytes.length b))
    | None -> invalidate_serial t cpu);
    write_sb t cpu ~clean:true
  end

let recovery_ns t = t.recovery_ns
let device t = t.dev
let config t = t.cfg
let faults t = t.faults
let read_only t = t.read_only
let refused_inodes t = Inode.refused t.inodes

(* ------------------------------------------------------------------ *)
(* Namespace operations                                                *)

let mkdir t cpu path =
  Stats.span ~op:"mkdir" cpu @@ fun () ->
  Cost.charge_syscall cpu;
  require_writable t;
  Namespace.mkdir t.ns cpu path

let create t cpu path =
  Stats.span ~op:"create" cpu @@ fun () ->
  Cost.charge_syscall cpu;
  require_writable t;
  let f = Namespace.create_file t.ns cpu path in
  Fd_table.alloc t.fds ~ino:f.ino ~flags:Types.o_creat_rdwr

let unlink t cpu path =
  Stats.span ~op:"unlink" cpu @@ fun () ->
  Cost.charge_syscall cpu;
  require_writable t;
  Namespace.unlink t.ns cpu path

let rmdir t cpu path =
  Stats.span ~op:"rmdir" cpu @@ fun () ->
  Cost.charge_syscall cpu;
  require_writable t;
  Namespace.rmdir t.ns cpu path

let rename t cpu ~old_path ~new_path =
  Stats.span ~op:"rename" cpu @@ fun () ->
  Cost.charge_syscall cpu;
  require_writable t;
  Namespace.rename t.ns cpu ~old_path ~new_path

let readdir t cpu path =
  Stats.span ~op:"readdir" cpu @@ fun () ->
  Cost.charge_syscall cpu;
  Namespace.readdir t.ns cpu path

let stat t cpu path =
  Stats.span ~op:"stat" cpu @@ fun () ->
  Cost.charge_syscall cpu;
  let ino = Namespace.resolve t.ns cpu path in
  let f = Inode.find t.inodes ino in
  {
    Types.st_ino = ino;
    st_kind = f.kind;
    st_size = f.size;
    st_blocks =
      Int_map.fold f.records ~init:0 ~f:(fun acc _ (r : Inode.record) -> acc + r.len)
      + (List.length f.overflow * block);
    st_nlink = f.nlink;
  }

let exists t cpu path =
  match Namespace.resolve t.ns cpu path with
  | _ -> true
  | exception Types.Error ((ENOENT | ENOTDIR), _) -> false

let openf t cpu path (flags : Types.open_flags) =
  Stats.span ~op:"open" cpu @@ fun () ->
  Cost.charge_syscall cpu;
  if flags.wr || flags.creat || flags.trunc then require_writable t;
  match Namespace.resolve t.ns cpu path with
  | ino ->
      if flags.creat && flags.excl then Types.err EEXIST "%s" path;
      let f = Inode.find t.inodes ino in
      if Types.is_dir f.kind && flags.wr then Types.err EISDIR "%s" path;
      if flags.trunc && Types.is_regular f.kind && f.size > 0 then
        Datapath.truncate_on_open t.data cpu f;
      Fd_table.alloc t.fds ~ino ~flags
  | exception Types.Error (ENOENT, _) when flags.creat ->
      let f = Namespace.create_file t.ns cpu path in
      Fd_table.alloc t.fds ~ino:f.ino ~flags

let close t cpu fd =
  Stats.span ~op:"close" cpu @@ fun () ->
  Cost.charge_syscall cpu;
  Fd_table.close t.fds fd

let file_size t fd =
  let e = Fd_table.get t.fds fd in
  (Inode.find t.inodes e.ino).size

(* ------------------------------------------------------------------ *)
(* Data operations                                                     *)

let pwrite_sub t cpu fd ~off ~src ~src_off ~len =
  Stats.span ~op:"pwrite" cpu @@ fun () ->
  Cost.charge_syscall cpu;
  require_writable t;
  let e = Fd_table.get t.fds fd in
  if not e.flags.wr then Types.err EBADF "fd %d not writable" fd;
  let f = Inode.find t.inodes e.ino in
  if Types.is_dir f.kind then Types.err EISDIR "fd %d" fd;
  Datapath.pwrite t.data cpu f ~off ~src ~src_off ~len

let pwrite t cpu fd ~off ~src =
  pwrite_sub t cpu fd ~off ~src ~src_off:0 ~len:(String.length src)

let append t cpu fd ~src =
  let e = Fd_table.get t.fds fd in
  let f = Inode.find t.inodes e.ino in
  pwrite t cpu fd ~off:f.size ~src

let pread t cpu fd ~off ~len =
  Stats.span ~op:"pread" cpu @@ fun () ->
  Cost.charge_syscall cpu;
  let e = Fd_table.get t.fds fd in
  if not e.flags.rd then Types.err EBADF "fd %d not readable" fd;
  let f = Inode.find t.inodes e.ino in
  if Types.is_dir f.kind then Types.err EISDIR "fd %d" fd;
  Datapath.pread t.data cpu f ~off ~len

let fsync t cpu fd =
  Stats.span ~op:"fsync" cpu @@ fun () ->
  Cost.charge_syscall cpu;
  let e = Fd_table.get t.fds fd in
  let f = Inode.find t.inodes e.ino in
  Datapath.fsync t.data cpu f

let fallocate t cpu fd ~off ~len =
  Stats.span ~op:"fallocate" cpu @@ fun () ->
  Cost.charge_syscall cpu;
  require_writable t;
  let e = Fd_table.get t.fds fd in
  let f = Inode.find t.inodes e.ino in
  Datapath.fallocate t.data cpu f ~off ~len

let ftruncate t cpu fd new_size =
  Stats.span ~op:"ftruncate" cpu @@ fun () ->
  Cost.charge_syscall cpu;
  require_writable t;
  let e = Fd_table.get t.fds fd in
  let f = Inode.find t.inodes e.ino in
  Datapath.ftruncate t.data cpu f new_size

(* ------------------------------------------------------------------ *)
(* Memory mapping: the hugepage-aware fault path (§3.6)                *)

let mmap_backing t fd : Vmem.backing =
  let e = Fd_table.get t.fds fd in
  let enqueue ino =
    (* Queue the file for reactive rewriting (§3.6). *)
    note ~obj:"fs.rewrite_queue" ~write:true ~site:"fs.fault_queue";
    if not (List.mem ino t.rewrite_queue) then t.rewrite_queue <- ino :: t.rewrite_queue
  in
  Datapath.fault t.data ~read_only:(fun () -> t.read_only) ~enqueue e.ino

let set_xattr_align t cpu path v =
  Stats.span ~op:"set_xattr_align" cpu @@ fun () ->
  Cost.charge_syscall cpu;
  require_writable t;
  let ino = Namespace.resolve t.ns cpu path in
  let f = Inode.find t.inodes ino in
  Sched.with_lock f.lock (fun () ->
      f.xattr_align <- v;
      Txn.with_txn t.txns cpu ~reserve:2 (fun txn -> Inode.persist_header t.inodes cpu txn f))

(* ------------------------------------------------------------------ *)
(* Reactive rewriting (§3.6)                                           *)

(* A background pass that rewrites fragmented memory-mapped files using
   big allocations.  As in the paper, the new copy is built under a fresh
   (not-yet-valid) inode and a single journal transaction atomically
   deletes the old file and points the directory entry at the new one.
   Open files are skipped (retried next pass). *)
let rewrite_one t cpu (f : Inode.file) =
  let size = Units.round_up f.size block in
  if size = 0 then false
  else
    match Inode.alloc_ino t.inodes cpu with
    | None -> false
    | Some new_ino -> (
        match Alloc.alloc t.alloc ~cpu:(acpu t cpu) ~len:size ~prefer_aligned:true with
        | None ->
            Inode.release_ino t.inodes new_ino;
            false (* not enough space; leave the file alone *)
        | Some exts ->
            let nf = Inode.install t.inodes new_ino Types.Regular in
            Inode.init_slots t.inodes cpu new_ino;
            nf.size <- f.size;
            nf.xattr_align <- f.xattr_align;
            (* Copy current contents into the new extents and record them
               under the new inode (which is still invalid on PM, so a
               crash here simply leaks nothing: the scan ignores it). *)
            let pf = ref 0 in
            List.iter
              (fun (ext : Alloc.extent) ->
                Device.annotate t.dev (Fresh { addr = ext.off; len = ext.len });
                Device.with_site t.dev site_rewrite (fun () ->
                    let copied = ref 0 in
                    while !copied < ext.len do
                      (match Extent_map.lookup_run f ~file_off:(!pf + !copied) with
                      | Some (phys, run) ->
                          let n = min run (ext.len - !copied) in
                          Device.copy_within_nt t.dev cpu ~src:phys ~dst:(ext.off + !copied)
                            ~len:n;
                          copied := !copied + n
                      | None ->
                          Device.memset_nt t.dev cpu ~off:(ext.off + !copied)
                            ~len:(ext.len - !copied) '\000';
                          copied := ext.len)
                    done);
                Txn.with_txn t.txns cpu ~reserve:6 (fun txn ->
                    Extent_map.add_record t.map cpu txn nf ~file_off:!pf ~phys:ext.off
                      ~len:ext.len
                      ~asrc:(ext.len = huge && Units.is_aligned ext.off huge));
                pf := !pf + ext.len)
              exts;
            Device.with_site t.dev site_rewrite (fun () -> Device.fence t.dev cpu);
            (* The atomic swap: old inode dies, dentry re-points, new inode
               becomes valid — one transaction (§3.6). *)
            let parent = Inode.find t.inodes f.parent in
            let slot_phys = Namespace.rewrite_dentry_slot t.ns cpu ~parent ~name:f.dname in
            Txn.with_txn t.txns cpu ~reserve:8 (fun txn ->
                Inode.persist_header t.inodes cpu txn nf;
                Inode.persist_invalid t.inodes cpu txn f;
                Namespace.write_dentry t.ns cpu txn ~slot_phys ~ino:new_ino ~name:f.dname);
            Namespace.retarget_index t.ns cpu ~parent ~name:f.dname ~ino:new_ino
              ~slot:slot_phys;
            nf.parent <- f.parent;
            nf.dname <- f.dname;
            Extent_map.free_file_space t.map f;
            Inode.forget t.inodes ~site:"fs.rewrite_one" f.ino;
            Inode.release_ino t.inodes f.ino;
            Stats.count "fs.reactive_rewrites" 1;
            true)

let run_rewriter t cpu =
  if t.read_only then 0
  else begin
    note ~obj:"fs.rewrite_queue" ~write:true ~site:"fs.run_rewriter";
    let queue = t.rewrite_queue in
    t.rewrite_queue <- [];
    let rewritten = ref 0 in
    List.iter
      (fun ino ->
        match Inode.find_opt t.inodes ino with
        | None -> ()
        | Some f ->
            if Fd_table.is_open_ino t.fds ino then
              (* Still open (possibly mapped): retry on a later pass. *)
              t.rewrite_queue <- ino :: t.rewrite_queue
            else Sched.with_lock f.lock (fun () -> if rewrite_one t cpu f then incr rewritten))
      queue;
    !rewritten
  end

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

let statfs t =
  let capacity = Array.fold_left (fun acc (_, len) -> acc + len) 0 t.layout.stripes in
  let free = Alloc.free_bytes t.alloc in
  {
    Types.capacity;
    used = capacity - free;
    free;
    free_extents =
      (let holes = ref 0 in
       for c = 0 to t.cfg.cpus - 1 do
         holes := !holes + snd (Alloc.hole_stats t.alloc ~cpu:c)
       done;
       Alloc.free_aligned_extents t.alloc + !holes);
    largest_free = (if Alloc.free_aligned_extents t.alloc > 0 then huge else 0);
    aligned_free_2m = Alloc.aligned_region_count t.alloc;
  }

let file_extents t cpu path =
  let ino = Namespace.resolve t.ns cpu path in
  let f = Inode.find t.inodes ino in
  List.rev
    (Int_map.fold f.records ~init:[] ~f:(fun acc o (r : Inode.record) ->
         (o, r.phys, r.len) :: acc))
