(* @perf-smoke: operation-count budgets for the flat substrate.

   Wall-clock assertions flake under CI load, so the perf regressions
   this guards are expressed as deterministic operation counts instead:
   hash-probe work per table operation, pending-entries visited per
   fence, minor-heap words allocated per device access (stats off and
   on) and per zeroed-field CRC, major-heap words allocated by a fresh
   device and its crash image and by chunks a uniform store displaced,
   minor words per whole-chunk uniform store, heap words a recovery
   mount keeps live and minor words it allocates per live file, minor
   words per first lookup of a file the mount left pending and per
   inode-number allocation and release, minor words per DRAM-index
   predecessor search and directory-index insertion and per mutex
   created, and minor words per LRU-directory access and per mapped
   read through the memsim TLB/LLC model.  A regression that
   reintroduces O(all-pending) fence sweeps, degenerate probe chains or
   a per-access allocation fails these budgets on any machine, loaded
   or not. *)

open Repro_util
module Device = Repro_pmem.Device
module Stats = Repro_stats.Stats
module Types = Repro_vfs.Types

let failures = ref 0

let budget name ~actual ~limit =
  if actual > limit then begin
    Printf.printf "FAIL %-32s %d > budget %d\n" name actual limit;
    incr failures
  end
  else Printf.printf "ok   %-32s %d <= %d\n" name actual limit

let table_probe_budget () =
  (* 10k inserts + 10k hits + 10k misses on a well-spread key set: the
     3/4 load-factor cap keeps expected probes per operation small; 4x
     is far above healthy linear probing and far below a degenerate
     chain. *)
  let n = 10_000 in
  let t = Flat_table.create ~capacity:16 ~dummy:0 () in
  for i = 0 to n - 1 do
    Flat_table.set t (i * 2) i
  done;
  for i = 0 to n - 1 do
    ignore (Flat_table.get t (i * 2) ~default:(-1));
    ignore (Flat_table.mem t ((i * 2) + 1))
  done;
  budget "flat_table probes / 30k ops" ~actual:(Flat_table.probe_steps t) ~limit:(4 * 3 * n)

let table_tombstone_budget () =
  (* Delete-heavy churn in a fixed key range: tombstone rehashing must
     keep probe chains short instead of letting them creep toward a full
     scan per lookup. *)
  let t = Flat_table.create ~capacity:16 ~dummy:0 () in
  let range = 512 in
  for i = 0 to range - 1 do
    Flat_table.set t i i
  done;
  let p0 = Flat_table.probe_steps t in
  let rounds = 200 in
  for r = 1 to rounds do
    for i = 0 to range - 1 do
      Flat_table.remove t i;
      Flat_table.set t i (i + r)
    done
  done;
  let per_op = (Flat_table.probe_steps t - p0) / (rounds * range * 2) in
  budget "flat_table churn probes / op" ~actual:per_op ~limit:6

let fence_sweep_budget () =
  (* 10k dirty lines, 100 flushed: the fence may visit only what was
     flushed (+ small constant), never the whole pending set. *)
  let dev = Device.create ~cost:Device.Cost.free ~size:(4 * Units.mib) () in
  let cpu = Cpu.make ~id:0 () in
  Device.set_tracking dev true;
  let cl = Units.cacheline in
  let dirty = 10_000 and flushed = 100 in
  for i = 0 to dirty - 1 do
    Device.write_string dev cpu ~off:(i * cl) ~src:"d" ~src_off:0 ~len:1
  done;
  Device.flush dev cpu ~off:0 ~len:(flushed * cl);
  let v0 = Device.fence_sweep_visits dev in
  Device.fence dev cpu;
  budget "fence sweep visits (100 flushed)" ~actual:(Device.fence_sweep_visits dev - v0)
    ~limit:flushed;
  (* Ten no-progress fences over the still-pending 9.9k lines: a sweep
     proportional to pending would show up as ~99k visits here. *)
  let v1 = Device.fence_sweep_visits dev in
  for _ = 1 to 10 do
    Device.fence dev cpu
  done;
  budget "fence sweep visits (10 empty fences)" ~actual:(Device.fence_sweep_visits dev - v1)
    ~limit:0

(* Minor words allocated per call, averaged over [n] calls of [f]. *)
let words_per_call n f =
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    f i
  done;
  int_of_float ((Gc.minor_words () -. w0) /. float_of_int n)

let access_alloc_budget () =
  (* The uninstrumented access path (no hook, tracking off) must not
     allocate, with stats off or on: an event record or a boxed [Some cpu]
     built per access, or a closure per stat-cell lookup, shows up here as
     words per call.  [read_u64] is left out — its boxed int64 result is
     the caller's allocation. *)
  let dev = Device.create ~size:(4 * Units.mib) () in
  let cpu = Cpu.make ~id:0 () in
  let src = Bytes.make 256 's' and dst = Bytes.create 256 in
  let was = Stats.enabled () in
  let n = 10_000 in
  let off i = (i land 1023) * 256 in
  let ops =
    [
      ("write", fun i -> Device.write dev cpu ~off:(off i) ~src ~src_off:0 ~len:256);
      ("write_nt", fun i -> Device.write_nt dev cpu ~off:(off i) ~src ~src_off:0 ~len:256);
      ("memset", fun i -> Device.memset dev cpu ~off:(off i) ~len:256 'm');
      ("memset_nt", fun i -> Device.memset_nt dev cpu ~off:(off i) ~len:256 'm');
      ("copy_within", fun i -> Device.copy_within dev cpu ~src:(off i) ~dst:(off (i + 1)) ~len:256);
      ( "copy_within_nt",
        fun i -> Device.copy_within_nt dev cpu ~src:(off i) ~dst:(off (i + 1)) ~len:256 );
      ("write_u64", fun i -> Device.write_u64 dev cpu ~off:(off i) 7L);
      ("read", fun i -> Device.read dev cpu ~off:(off i) ~len:256 ~dst ~dst_off:0);
      ("touch_read", fun i -> Device.touch_read dev cpu ~off:(off i) ~len:256);
      ("flush", fun i -> Device.flush dev cpu ~off:(off i) ~len:256);
      ("fence", fun _ -> Device.fence dev cpu);
    ]
  in
  List.iter
    (fun stats ->
      Stats.set_enabled stats;
      let suffix = if stats then " (stats on)" else "" in
      List.iter
        (fun (name, f) ->
          (* One call first, so the site's stat cells exist. *)
          f 0;
          budget ("minor words / " ^ name ^ suffix) ~actual:(words_per_call n f) ~limit:0)
        ops)
    [ false; true ];
  Stats.set_enabled was

let image_alloc_budget () =
  (* A fresh device and a crash image share chunks instead of copying
     the media: on a 256 MiB device (32 Mwords of bytes), [create], 8
     tracked line stores in 8 different chunks and one [crash_image]
     that reverts them all stay within 1 Mword of major heap. *)
  let w0 = (Gc.quick_stat ()).major_words in
  let dev = Device.create ~cost:Device.Cost.free ~size:(256 * Units.mib) () in
  let cpu = Cpu.make ~id:0 () in
  Device.set_tracking dev true;
  for i = 0 to 7 do
    Device.write_u64 dev cpu ~off:(i * 32 * Units.mib) 1L
  done;
  let img = Device.crash_image dev ~persisted:(fun _ -> false) in
  let words = int_of_float ((Gc.quick_stat ()).major_words -. w0) in
  budget "major words / 256MiB image" ~actual:words ~limit:1_000_000;
  ignore (Sys.opaque_identity img)

(* Uniform payload sharing over an owned 4 MiB range (64 chunks).  A
   whole-chunk store from a uniform string displaces each owned chunk to
   the device's spare pool, so a partial store into each chunk right
   after copies into a spare instead of allocating a fresh 64 KiB block
   (8 Kwords of major heap apiece).  In steady state a whole-chunk store
   from a warm string costs its memo probe and the spare-list cell of
   the chunk it displaces. *)
let uniform_store_budget () =
  let chunk = 64 * Units.kib and len = 4 * Units.mib in
  let chunks = len / chunk in
  let dev = Device.create ~cost:Device.Cost.free ~size:len () in
  let cpu = Cpu.make ~id:0 () in
  let was = Stats.enabled () in
  Stats.set_enabled false;
  Device.write dev cpu ~off:0 ~src:(Bytes.make len 'o') ~src_off:0 ~len;
  let payload = String.make len 'g' in
  Device.write_string_nt dev cpu ~off:0 ~src:payload ~src_off:0 ~len;
  let w0 = (Gc.quick_stat ()).major_words in
  for i = 0 to chunks - 1 do
    Device.write_u64 dev cpu ~off:((i * chunk) + 64) 1L
  done;
  let words = int_of_float ((Gc.quick_stat ()).major_words -. w0) in
  budget "major words / re-owned chunk" ~actual:(words / chunks) ~limit:0;
  let piece = String.make chunk 'u' in
  let per_store =
    words_per_call 10_000 (fun i ->
        let off = i mod chunks * chunk in
        Device.write_u64 dev cpu ~off 2L;
        Device.write_string_nt dev cpu ~off ~src:piece ~src_off:0 ~len:chunk)
  in
  budget "minor words / uniform chunk store" ~actual:per_store ~limit:5;
  Stats.set_enabled was

(* The crash workload's recovery probe: a 32 MiB, 4-CPU, 1024-inodes-
   per-CPU WineFS image crashed (remounted without unmount) over and
   over.  The mount's rebuild sweeps every inode-table slot in place and
   reuses one scan buffer per mount, so its heap words grow with the
   live files' decoded state only: a run of ints per regular file, whose
   DRAM inode is built on first lookup (no header record, no list cell
   per used extent, no option per dentry, no per-file slot buffer, no list
   cell per free extent slot, no path-copied map node per dentry), and
   an empty image allocates no minor words per table slot (the per-CPU
   free-inode stacks are int arrays, no cons cell per blank slot). *)
let mount_alloc_budget () =
  let cfg = Types.config ~cpus:4 ~inodes_per_cpu:1024 () in
  let image files =
    let dev = Device.create ~size:(32 * Units.mib) () in
    let fs = Winefs.Fs.format dev cfg in
    let cpu = Cpu.make ~id:0 () in
    let page = String.make Units.base_page 'r' in
    for i = 0 to files - 1 do
      let fd = Winefs.Fs.create fs cpu (Printf.sprintf "/p%d" i) in
      ignore (Winefs.Fs.pwrite fs cpu fd ~off:0 ~src:page);
      Winefs.Fs.close fs cpu fd
    done;
    dev
  in
  (* Heap words one crash mount keeps live after a full major
     collection, measured after a mount that settles the image into its
     crashed (dirty superblock) state.  Live words do not depend on
     where minor collections fall, as words allocated to the major heap
     do. *)
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).live_words
  in
  let live_per_mount dev =
    ignore (Sys.opaque_identity (Winefs.Fs.mount dev cfg));
    let w0 = live_words () in
    let fs = Winefs.Fs.mount dev cfg in
    let w1 = live_words () in
    ignore (Sys.opaque_identity fs);
    w1 - w0
  in
  let files = 512 in
  let full = image files in
  let empty = image 0 in
  let per_file = (live_per_mount full - live_per_mount empty) / files in
  budget "live words / mount / live file" ~actual:per_file ~limit:41;
  (* Minor words per mount over a few crash mounts of each image, and
     what a live file adds to them. *)
  let mounts = 4 in
  let minor dev =
    ignore (Sys.opaque_identity (Winefs.Fs.mount dev cfg));
    words_per_call mounts (fun _ -> ignore (Sys.opaque_identity (Winefs.Fs.mount dev cfg)))
  in
  let minor_empty = minor empty in
  budget "minor words / empty-image mount" ~actual:minor_empty ~limit:9_727;
  budget "minor words / mount / live file"
    ~actual:((minor full - minor_empty) / files)
    ~limit:10;
  (* A regular file's DRAM inode is built on its first lookup: its
     record, extent map, lock and table cell, nothing per mount. *)
  let layout =
    Winefs.Layout.compute ~size:(Device.size full) ~cpus:4 ~inodes_per_cpu:1024
  in
  let inodes = Winefs.Inode.create ~dev:full ~layout ~txns:(Winefs.Txn.attach full layout) in
  ignore (Winefs.Inode.scan_tables inodes (Cpu.make ~id:0 ()) ~on_refuse:(fun _ _ -> ()));
  (* The files were created in order on CPU 0, as inodes 2 to 513. *)
  budget "minor words / first lookup of a pending file"
    ~actual:
      (words_per_call files (fun i ->
           ignore (Sys.opaque_identity (Winefs.Inode.find inodes (i + 2)))))
    ~limit:50

(* Allocating and releasing an inode number touches only the per-CPU
   free stacks: with no race monitor running, no race-detector object
   name is built, and the only words are the result's [Some]. *)
let ino_alloc_budget () =
  let dev = Device.create ~size:(32 * Units.mib) () in
  let cpu = Cpu.make ~id:0 () in
  let layout = Winefs.Layout.compute ~size:(Device.size dev) ~cpus:4 ~inodes_per_cpu:64 in
  let inodes = Winefs.Inode.create ~dev ~layout ~txns:(Winefs.Txn.format dev cpu layout) in
  Winefs.Inode.init_free inodes;
  budget "minor words / alloc_ino+release_ino"
    ~actual:
      (words_per_call 10_000 (fun _ ->
           match Winefs.Inode.alloc_ino inodes cpu with
           | Some ino -> Winefs.Inode.release_ino inodes ino
           | None -> ()))
    ~limit:2

let crc_alloc_budget () =
  (* Every inode-header verify and persist, undo entry and redo record
     folds a zeroed checksum field: it must not cost a buffer per call. *)
  let b = Bytes.make 64 'h' in
  Crc32c.set_zeroed b ~off:0 ~len:64 ~csum_off:56;
  let n = 10_000 in
  budget "minor words / digest_zeroed"
    ~actual:(words_per_call n (fun _ -> ignore (Crc32c.digest_zeroed b ~off:0 ~len:64 ~csum_off:56)))
    ~limit:0;
  budget "minor words / verify_zeroed"
    ~actual:(words_per_call n (fun _ -> ignore (Crc32c.verify_zeroed b ~off:0 ~len:64 ~csum_off:56)))
    ~limit:0

(* The two hottest DRAM-index paths: the predecessor search behind every
   extent-record lookup, and the directory-index insertion behind every
   create and every dentry of a mount's directory rebuild.  Both are
   measured on 512 entries inserted in a scattered order. *)
let index_alloc_budget () =
  let module Int_map = Repro_rbtree.Ordmap.Int_map in
  let module Dir_index = Repro_vfs.Dir_index in
  let n = 512 in
  let scatter i = i * 7919 mod n in
  let m = Int_map.create () in
  for i = 0 to n - 1 do
    Int_map.insert m (scatter i * Units.base_page) i
  done;
  budget "minor words / find_last_leq (512)"
    ~actual:
      (words_per_call 10_000 (fun i ->
           ignore (Sys.opaque_identity (Int_map.find_last_leq m ((scatter i * Units.base_page) + 100)))))
    ~limit:10;
  let names = Array.init n (fun i -> Printf.sprintf "entry-%04d" (scatter i)) in
  let cpu = Cpu.make ~id:0 () in
  let builds = 20 in
  let per_build =
    words_per_call builds (fun _ ->
        let d = Dir_index.create Dir_index.Dram_rbtree in
        Array.iteri (fun i name -> Dir_index.add d cpu ~name ~ino:i ~slot:i) names)
  in
  budget "minor words / Dir_index.add (512)" ~actual:(per_build / n) ~limit:9

(* Every inode carries a lock, and most are never contended: creating
   one allocates the mutex record only, no wait queue of its own. *)
let mutex_alloc_budget () =
  budget "minor words / Sched.create_mutex"
    ~actual:
      (words_per_call 10_000 (fun _ ->
           ignore (Sys.opaque_identity (Repro_sched.Sched.create_mutex ()))))
    ~limit:6

(* The memsim per-line and per-translation path: the LLC directory is
   consulted once per simulated cache line and the TLBs once per
   translation, so neither may allocate.  A 64 KiB read of a mapped,
   base-page region (16 translations, 1024 lines) allocates only its
   per-call closure, so words growing with the line count show a
   per-line allocation.  [read_u64] allocates only its boxed int64
   result. *)
let memsim_alloc_budget () =
  let module Lru = Repro_memsim.Lru_sets in
  let module Vmem = Repro_memsim.Vmem in
  let l = Lru.create ~sets:64 ~ways:16 in
  budget "minor words / Lru_sets.access"
    ~actual:(words_per_call 100_000 (fun i -> ignore (Sys.opaque_identity (Lru.access l (i * 37 land 4095)))))
    ~limit:0;
  let was = Stats.enabled () in
  Stats.set_enabled false;
  let len = 16 * Units.mib in
  let dev = Device.create ~cost:Device.Cost.free ~size:len () in
  let vm = Vmem.create dev in
  let cpu = Cpu.make ~id:0 () in
  let r =
    Vmem.mmap vm ~len ~huge_ok:false ~backing:(fun _ ~file_off ~huge_ok:_ -> Vmem.Base file_off) ()
  in
  Vmem.prefault vm cpu r;
  let stream = 64 * Units.kib in
  let per_read =
    words_per_call 2_000 (fun i -> Vmem.read vm cpu r ~off:(i * stream mod len) ~len:stream)
  in
  budget "minor words / Vmem.read 64KiB" ~actual:per_read ~limit:6;
  let per_u64 =
    words_per_call 100_000 (fun i ->
        ignore (Sys.opaque_identity (Vmem.read_u64 vm cpu r ~off:(i * 4104 mod (len - 8)))))
  in
  budget "minor words / Vmem.read_u64" ~actual:per_u64 ~limit:3;
  Stats.set_enabled was

let () =
  table_probe_budget ();
  table_tombstone_budget ();
  fence_sweep_budget ();
  access_alloc_budget ();
  image_alloc_budget ();
  uniform_store_budget ();
  crc_alloc_budget ();
  mount_alloc_budget ();
  ino_alloc_budget ();
  index_alloc_budget ();
  mutex_alloc_budget ();
  memsim_alloc_budget ();
  if !failures > 0 then begin
    Printf.printf "%d perf budget(s) exceeded\n" !failures;
    exit 1
  end
