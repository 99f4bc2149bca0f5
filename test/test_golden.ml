(* Golden-image regression tests.

   One fixed, deterministic workload (strict mode, 2 CPUs) is replayed
   against every file system; the resulting PM image CRC32C, the run's
   operation/byte counters in the stats registry and both CPUs' final
   simulated clocks must match values captured before a refactor.  WineFS runs under the
   free cost model (its pins predate the Txn/Inode/Extent_map/Datapath/
   Namespace split); the baselines run under the Optane cost model, so
   the clocks pin their charging order too.  Any drift in journal
   traffic, allocation order, on-PM encodings, cost charging or counter
   accounting shows up here as a diff. *)

open Repro_util
module Device = Repro_pmem.Device
module Types = Repro_vfs.Types
module Fs_intf = Repro_vfs.Fs_intf
module Vmem = Repro_memsim.Vmem
module Sched = Repro_sched.Sched
module Registry = Repro_baselines.Registry
module Stats = Repro_stats.Stats

let mib = Units.mib

(* Deterministic payload: same bytes on every run. *)
let pattern n seed = String.init n (fun i -> Char.chr ((i + (31 * seed)) land 0xff))

let expected_image_crc = 0x5d8dd747

(* WineFS counts each operation in its stats span ([op.count{op}]); the
   baselines have no spans and count theirs as [fs.<op>]. *)
let expected_counters =
  [
    ("fs.alloc_bytes", 4354048);
    ("fs.cow_bytes", 12288);
    ("fs.data_journal_bytes", 70000);
    ("fs.read_bytes", 80000);
    ("fs.write_bytes", 204808);
    ("op.count{op=close}", 24);
    ("op.count{op=create}", 22);
    ("op.count{op=fallocate}", 1);
    ("op.count{op=fsync}", 21);
    ("op.count{op=ftruncate}", 2);
    ("op.count{op=mkdir}", 2);
    ("op.count{op=open}", 2);
    ("op.count{op=pread}", 2);
    ("op.count{op=pwrite}", 25);
    ("op.count{op=readdir}", 1);
    ("op.count{op=rename}", 1);
    ("op.count{op=set_xattr_align}", 1);
    ("op.count{op=stat}", 1);
    ("op.count{op=unlink}", 7);
  ]

(* The [fs.*] counters and the per-operation span counts [f] adds to the
   stats registry, by name; the registry's [enabled] flag is restored
   afterwards. *)
let counted f =
  let was = Stats.enabled () in
  Stats.set_enabled true;
  Stats.reset ();
  Fun.protect ~finally:(fun () -> Stats.set_enabled was) @@ fun () ->
  let r = f () in
  ( r,
    List.filter_map
      (fun (name, labels, v) ->
        match labels with
        | [] when String.starts_with ~prefix:"fs." name -> Some (name, v)
        | [ ("op", op) ] when name = "op.count" -> Some (Printf.sprintf "op.count{op=%s}" op, v)
        | _ -> None)
      (Stats.snapshot ()).s_counters )

let workload ~cost (make : Device.t -> Types.config -> Fs_intf.handle) =
  let dev = Device.create ~cost ~size:(64 * mib) () in
  let cfg = Types.config ~cpus:2 ~mode:Types.Strict ~inodes_per_cpu:256 () in
  let (Fs_intf.Handle ((module Fs), fs)) = make dev cfg in
  let c0 = Cpu.make ~id:0 () in
  let c1 = Cpu.make ~id:1 () in
  Fs.mkdir fs c0 "/d";
  Fs.mkdir fs c0 "/d/sub";
  let fd = Fs.create fs c0 "/d/file" in
  ignore (Fs.pwrite fs c0 fd ~off:0 ~src:(pattern 10_000 1));
  ignore (Fs.pwrite fs c0 fd ~off:4096 ~src:(pattern 8192 2));
  Fs.fallocate fs c0 fd ~off:0 ~len:(4 * mib);
  ignore (Fs.append fs c0 fd ~src:(pattern 5000 3));
  Fs.ftruncate fs c0 fd (3 * mib);
  Fs.fsync fs c0 fd;
  Fs.close fs c0 fd;
  Fs.set_xattr_align fs c0 "/d/file" true;
  let fd2 = Fs.openf fs c0 "/d/file" Types.o_rdwr in
  ignore (Fs.pwrite fs c0 fd2 ~off:(2 * mib) ~src:(pattern 70_000 4));
  Fs.close fs c0 fd2;
  for i = 0 to 19 do
    let p = Printf.sprintf "/d/sub/f%d" i in
    let fd = Fs.create fs c1 p in
    ignore (Fs.pwrite fs c1 fd ~off:0 ~src:(pattern (512 * (i + 1)) i));
    Fs.fsync fs c1 fd;
    Fs.close fs c1 fd;
    if i mod 3 = 0 then Fs.unlink fs c1 p
  done;
  Fs.rename fs c0 ~old_path:"/d/sub/f1" ~new_path:"/d/renamed";
  let fd3 = Fs.create fs c0 "/sparse" in
  Fs.ftruncate fs c0 fd3 (8 * mib);
  ignore (Fs.pwrite fs c0 fd3 ~off:(5 * mib) ~src:(pattern 4096 9));
  Fs.close fs c0 fd3;
  ignore (Fs.readdir fs c0 "/d");
  ignore (Fs.stat fs c0 "/d/renamed");
  let fd4 = Fs.openf fs c0 "/d/file" Types.o_rdonly in
  ignore (Fs.pread fs c0 fd4 ~off:0 ~len:10_000);
  ignore (Fs.pread fs c0 fd4 ~off:(2 * mib) ~len:70_000);
  Fs.close fs c0 fd4;
  Fs.unmount fs c0;
  (dev, (Cpu.now c0, Cpu.now c1))

let run_workload ~cost (make : Device.t -> Types.config -> Fs_intf.handle) =
  let (dev, clocks), counters = counted (fun () -> workload ~cost make) in
  (dev, counters, clocks)

let image_crc dev =
  let size = Device.size dev in
  let chunk = 65536 in
  let buf = Bytes.create chunk in
  let crc = ref Crc32c.init in
  let off = ref 0 in
  while !off < size do
    let n = min chunk (size - !off) in
    Device.peek dev ~off:!off ~len:n ~dst:buf ~dst_off:0;
    crc := Crc32c.update !crc buf ~off:0 ~len:n;
    off := !off + n
  done;
  Crc32c.finish !crc

let winefs () = run_workload ~cost:Device.Cost.free Registry.winefs.make

let test_image_crc () =
  let dev, _, _ = winefs () in
  Alcotest.(check int) "PM image CRC32C" expected_image_crc (image_crc dev)

let test_counter_totals () =
  let _, counters, _ = winefs () in
  Alcotest.(check (list (pair string int))) "counter snapshot" expected_counters counters

(* Baseline pins: (image CRC32C, counter snapshot, (cpu0, cpu1) clocks). *)
let baseline_pins =
  [
    ( Registry.ext4_dax,
      ( 0xbbcb2435,
        [
          ("fs.create", 22);
          ("fs.fallocate", 1);
          ("fs.fsync", 21);
          ("fs.ftruncate", 2);
          ("fs.mkdir", 2);
          ("fs.read_bytes", 80000);
          ("fs.rename", 1);
          ("fs.unlink", 7);
          ("fs.write_bytes", 204808);
        ],
        (67162, 144732) ) );
    ( Registry.xfs_dax,
      ( 0x71f11964,
        [
          ("fs.create", 22);
          ("fs.fallocate", 1);
          ("fs.fsync", 21);
          ("fs.ftruncate", 2);
          ("fs.mkdir", 2);
          ("fs.read_bytes", 80000);
          ("fs.rename", 1);
          ("fs.unlink", 7);
          ("fs.write_bytes", 204808);
        ],
        (67162, 144732) ) );
    ( Registry.pmfs,
      ( 0xca7dd588,
        [
          ("fs.create", 22);
          ("fs.fallocate", 1);
          ("fs.fsync", 21);
          ("fs.ftruncate", 2);
          ("fs.mkdir", 2);
          ("fs.read_bytes", 80000);
          ("fs.rename", 1);
          ("fs.unlink", 7);
          ("fs.write_bytes", 204808);
        ],
        (1127884, 226852) ) );
    ( Registry.nova,
      ( 0x5cd661dd,
        [
          ("fs.cow_copy_bytes", 3728);
          ("fs.create", 22);
          ("fs.fallocate", 1);
          ("fs.fsync", 21);
          ("fs.ftruncate", 2);
          ("fs.log_appends", 85);
          ("fs.log_invalidations", 12);
          ("fs.log_pages", 25);
          ("fs.mkdir", 2);
          ("fs.read_bytes", 80000);
          ("fs.rename", 1);
          ("fs.unlink", 7);
          ("fs.write_bytes", 204808);
        ],
        (1108545, 108904) ) );
    ( Registry.nova_relaxed,
      ( 0x31688dc6,
        [
          ("fs.create", 22);
          ("fs.fallocate", 1);
          ("fs.fsync", 21);
          ("fs.ftruncate", 2);
          ("fs.log_appends", 108);
          ("fs.log_invalidations", 9);
          ("fs.log_pages", 25);
          ("fs.mkdir", 2);
          ("fs.read_bytes", 80000);
          ("fs.rename", 1);
          ("fs.unlink", 7);
          ("fs.write_bytes", 204808);
        ],
        (1112747, 137604) ) );
    ( Registry.splitfs,
      ( 0x5e0dcd5a,
        [
          ("fs.create", 22);
          ("fs.fallocate", 1);
          ("fs.fsync", 23);
          ("fs.ftruncate", 2);
          ("fs.mkdir", 2);
          ("fs.read_bytes", 80000);
          ("fs.rename", 1);
          ("fs.unlink", 7);
        ],
        (57674, 102872) ) );
    ( Registry.strata,
      ( 0x79bc7034,
        [
          ("fs.create", 22);
          ("fs.digested_bytes", 168968);
          ("fs.digests", 4);
          ("fs.fallocate", 1);
          ("fs.fsync", 21);
          ("fs.ftruncate", 2);
          ("fs.log_meta", 34);
          ("fs.mkdir", 2);
          ("fs.read_bytes", 80000);
          ("fs.rename", 1);
          ("fs.unlink", 7);
          ("fs.write_bytes", 204808);
        ],
        (1250310, 78494) ) );
  ]

let test_baseline (factory : Registry.factory) (crc, counters, clocks) () =
  let dev, got_counters, got_clocks = run_workload ~cost:Device.Cost.optane factory.make in
  Alcotest.(check int) "PM image CRC32C" crc (image_crc dev);
  Alcotest.(check (list (pair string int))) "counter snapshot" counters got_counters;
  Alcotest.(check (pair int int)) "cpu0/cpu1 clocks" clocks got_clocks

(* Fault-path pins.  The workload above maps nothing, so this one drives
   every baseline's fault handler under the Optane cost model: a
   fallocated file with one partial write, mapped with hugepages allowed;
   a sparse file with a few chunks mapped huge, then every page mapped
   without hugepages; and two Sched fibers faulting a third sparse file.
   Pinned: the image CRC32C, a digest of every fault answer (offset,
   huge_ok, Huge/Base/Sigbus and the physical address), both CPUs' clocks
   and the Sched makespan. *)
let run_mmap_workload (make : Device.t -> Types.config -> Fs_intf.handle) =
  let dev = Device.create ~cost:Device.Cost.optane ~size:(64 * mib) () in
  let cfg = Types.config ~cpus:2 ~mode:Types.Strict ~inodes_per_cpu:256 () in
  let (Fs_intf.Handle ((module Fs), fs)) = make dev cfg in
  let c0 = Cpu.make ~id:0 () in
  let c1 = Cpu.make ~id:1 () in
  let answers = ref Crc32c.init in
  let recorded fd : Vmem.backing =
    let backing = Fs.mmap_backing fs fd in
    fun cpu ~file_off ~huge_ok ->
      let r = backing cpu ~file_off ~huge_ok in
      let s =
        match r with
        | Vmem.Huge p -> Printf.sprintf "H%d:%d;" file_off p
        | Base p -> Printf.sprintf "B%d:%b:%d;" file_off huge_ok p
        | Sigbus -> Printf.sprintf "S%d:%b;" file_off huge_ok
      in
      answers := Crc32c.update_string !answers s ~off:0 ~len:(String.length s);
      r
  in
  let vm = Vmem.create dev in
  let fd = Fs.create fs c0 "/fa" in
  Fs.fallocate fs c0 fd ~off:0 ~len:(4 * mib);
  ignore (Fs.pwrite fs c0 fd ~off:(mib + 100) ~src:(pattern 10_000 5));
  let r = Vmem.mmap vm ~len:(4 * mib) ~backing:(recorded fd) ~huge_ok:true () in
  Vmem.write vm c0 r ~off:(3 * mib) ~src:(pattern 512 6);
  Vmem.persist vm c0 r ~off:(3 * mib) ~len:512;
  Vmem.prefault vm c0 r;
  let fd2 = Fs.create fs c1 "/sparse" in
  Fs.ftruncate fs c1 fd2 (6 * mib);
  ignore (Fs.pwrite fs c1 fd2 ~off:((2 * mib) + 8192) ~src:(pattern 3000 7));
  let r2 = Vmem.mmap vm ~len:(6 * mib) ~backing:(recorded fd2) ~huge_ok:true () in
  List.iter
    (fun off -> Vmem.read vm c1 r2 ~off ~len:64)
    [ 0; (2 * mib) + 8192; (4 * mib) + 4096 ];
  let r3 = Vmem.mmap vm ~len:(6 * mib) ~backing:(recorded fd2) ~huge_ok:false () in
  Vmem.prefault vm c1 r3;
  let fd3 = Fs.create fs c0 "/shared" in
  Fs.ftruncate fs c0 fd3 (2 * mib);
  ignore (Fs.pwrite fs c0 fd3 ~off:16384 ~src:(pattern 6000 8));
  let stats =
    Sched.run ~threads:2 (fun (cpu : Cpu.t) ->
        let r = Vmem.mmap vm ~len:(2 * mib) ~backing:(recorded fd3) ~huge_ok:(cpu.id = 0) () in
        for i = 0 to 31 do
          let page = if cpu.id = 0 then i else 31 - i in
          Vmem.read vm cpu r ~off:(page * 16 * Units.base_page) ~len:64
        done)
  in
  (image_crc dev, Crc32c.finish !answers, (Cpu.now c0, Cpu.now c1), stats.makespan_ns)

(* (image CRC32C, fault-answer digest, (cpu0, cpu1) clocks, makespan). *)
let mmap_pins =
  [
    (Registry.ext4_dax, (0xbe15bd27, 0x99c6184a, (1064675, 3516841), 58032));
    (Registry.xfs_dax, (0x395e053c, 0x4f204319, (2818638, 4224692), 75308));
    (Registry.pmfs, (0x84c89d3f, 0x4f204319, (2701181, 7196060), 107442));
    (Registry.nova, (0x322b392c, 0x7d495ac1, (1882488, 4744194), 80771));
    (Registry.nova_relaxed, (0x5f340501, 0xfd3c9a90, (1064135, 4744191), 80771));
    (Registry.splitfs, (0x618cae66, 0xc0e4d657, (1063470, 3516871), 530682));
    (Registry.strata, (0xf1e4a1c2, 0xe4c6e9fb, (1888122, 4225719), 112254));
  ]

let test_mmap (factory : Registry.factory) (crc, digest, clocks, makespan) () =
  let got_crc, got_digest, got_clocks, got_makespan = run_mmap_workload factory.make in
  Alcotest.(check int) "PM image CRC32C" crc got_crc;
  Alcotest.(check int) "fault-answer digest" digest got_digest;
  Alcotest.(check (pair int int)) "cpu0/cpu1 clocks" clocks got_clocks;
  Alcotest.(check int) "Sched makespan" makespan got_makespan

(* Recovery-mount pins.  The crash workload's probe image: 32 MiB under
   the Optane cost model, 4 CPUs with 1024 inodes each, 512 one-page
   files, crashed (remounted without unmount).  The variant poisons the
   header line of one inode and flips a bit in another inode's header in
   a different table chunk, so the mount takes the per-header fallback
   for the poisoned chunk and refuses a CRC-bad header found in place.
   Pinned: recovery_ns, a digest of every [Load {off; len}] the mount
   issues, in order, the refused-inode count, statfs, and the root
   listing's length and digest. *)
let recovery_cfg = Types.config ~cpus:4 ~inodes_per_cpu:1024 ()

let recovery_image () =
  let dev = Device.create ~size:(32 * mib) () in
  let fs = Winefs.Fs.format dev recovery_cfg in
  let cpu = Cpu.make ~id:0 () in
  let page = pattern Units.base_page 11 in
  for i = 0 to 511 do
    let fd = Winefs.Fs.create fs cpu (Printf.sprintf "/p%d" i) in
    ignore (Winefs.Fs.pwrite fs cpu fd ~off:0 ~src:page);
    Winefs.Fs.close fs cpu fd
  done;
  dev

let digest_strings l =
  Crc32c.finish
    (List.fold_left
       (fun c s -> Crc32c.update_string c s ~off:0 ~len:(String.length s))
       Crc32c.init l)

let run_recovery_mount ~damaged =
  let dev = recovery_image () in
  if damaged then begin
    let layout = Winefs.Layout.compute ~size:(32 * mib) ~cpus:4 ~inodes_per_cpu:1024 in
    let header idx = Winefs.Layout.inode_off layout (Winefs.Layout.ino_of layout ~cpu:0 ~idx) in
    Device.inject dev (Poison_line { off = header 100 });
    Device.inject dev (Bit_flip { off = header 300 + 8; bit = 3 })
  end;
  let loads = ref [] in
  let hook =
    Device.add_event_hook dev (fun _ _ -> function
      | Device.Load { off; len } -> loads := Printf.sprintf "%d:%d;" off len :: !loads
      | _ -> ())
  in
  let fs = Winefs.Fs.mount dev recovery_cfg in
  Device.remove_event_hook dev hook;
  let st = Winefs.Fs.statfs fs in
  let names = Winefs.Fs.readdir fs (Cpu.make ~id:0 ()) "/" in
  ( Winefs.Fs.recovery_ns fs,
    digest_strings (List.rev !loads),
    Winefs.Fs.refused_inodes fs,
    [ st.capacity; st.used; st.free; st.free_extents; st.largest_free; st.aligned_free_2m ],
    (List.length names, digest_strings names) )

(* The directory pass visits directories in inode-table order, CPU by
   CPU and ascending table index, and the mount's device reads follow
   it.  An image of 2481 live inodes: 40 directories of 60 empty files
   each, spread over the four CPUs' tables.  Pinned: recovery_ns, the
   [Load {off; len}] digest, that the dentry reads come one directory
   after another in ascending (cpu, idx) order, and the listing of the
   last directory. *)
let run_many_dirs_mount () =
  let dev = Device.create ~size:(32 * mib) () in
  let fs = Winefs.Fs.format dev recovery_cfg in
  let cpus = Array.init 4 (fun id -> Cpu.make ~id ()) in
  for d = 0 to 39 do
    Winefs.Fs.mkdir fs cpus.(d mod 4) (Printf.sprintf "/d%d" d);
    for i = 0 to 59 do
      let cpu = cpus.((d + i) mod 4) in
      Winefs.Fs.close fs cpu (Winefs.Fs.create fs cpu (Printf.sprintf "/d%d/f%d" d i))
    done
  done;
  let loads = ref [] in
  let hook =
    Device.add_event_hook dev (fun _ _ -> function
      | Device.Load { off; len } -> loads := (off, len) :: !loads
      | _ -> ())
  in
  let fs = Winefs.Fs.mount dev recovery_cfg in
  Device.remove_event_hook dev hook;
  let loads = List.rev !loads in
  let c0 = cpus.(0) in
  let names = Winefs.Fs.readdir fs c0 "/d39" in
  (* Each directory's dentry extents, read back with a scan of its own. *)
  let layout = Winefs.Layout.compute ~size:(Device.size dev) ~cpus:4 ~inodes_per_cpu:1024 in
  let inodes = Winefs.Inode.create ~dev ~layout ~txns:(Winefs.Txn.attach dev layout) in
  ignore (Winefs.Inode.scan_tables inodes c0 ~on_refuse:(fun _ _ -> ()));
  let dirs =
    Winefs.Namespace.root_ino
    :: List.init 40 (fun d -> (Winefs.Fs.stat fs c0 (Printf.sprintf "/d%d" d)).st_ino)
  in
  let dir_of off =
    List.find_opt
      (fun ino ->
        Repro_rbtree.Ordmap.Int_map.fold (Winefs.Inode.find inodes ino).records ~init:false
          ~f:(fun hit _ (r : Winefs.Inode.record) -> hit || (off >= r.phys && off < r.phys + r.len)))
      dirs
  in
  (* The directories whose dentries the mount read, in read order, one
     entry per run of reads. *)
  let read_order =
    List.fold_left
      (fun acc (off, _) ->
        match (dir_of off, acc) with
        | Some ino, last :: _ when ino = last -> acc
        | Some ino, _ -> ino :: acc
        | None, _ -> acc)
      [] loads
    |> List.rev
  in
  let table_pos ino = (Winefs.Layout.cpu_of_ino layout ino, Winefs.Layout.idx_of_ino layout ino) in
  let table_order = List.sort (fun a b -> compare (table_pos a) (table_pos b)) dirs in
  ( Winefs.Fs.recovery_ns fs,
    digest_strings (List.map (fun (off, len) -> Printf.sprintf "%d:%d;" off len) loads),
    (read_order, table_order),
    (List.length names, digest_strings names) )

let test_many_dirs_mount () =
  let ns, loads, (read_order, table_order), listing = run_many_dirs_mount () in
  Alcotest.(check int) "recovery_ns" 663348 ns;
  Alcotest.(check (list int)) "dentry reads in inode-table order" table_order read_order;
  Alcotest.(check int) "Load event digest" 0x90574706 loads;
  Alcotest.(check (pair int int)) "readdir /d39 length and digest" (60, 0x923ee15f) listing

let test_recovery_mount ~damaged (ns, loads, refused, statfs, listing) () =
  let got_ns, got_loads, got_refused, got_statfs, got_listing = run_recovery_mount ~damaged in
  Alcotest.(check int) "recovery_ns" ns got_ns;
  Alcotest.(check int) "Load event digest" loads got_loads;
  Alcotest.(check int) "refused inodes" refused got_refused;
  Alcotest.(check (list int)) "statfs" statfs got_statfs;
  Alcotest.(check (pair int int)) "readdir / length and digest" listing got_listing

(* (recovery_ns, Load digest, refused inodes, statfs, (entries, digest)). *)
let recovery_pins =
  [
    ( false,
      ( 296745,
        0x4025cee7,
        0,
        [ 27262976; 2097152; 25165824; 12; 2097152; 12 ],
        (512, 0xe6af2b7f) ) );
    ( true,
      ( 314994,
        0xd42387e1,
        2,
        [ 27262976; 2088960; 25174016; 14; 2097152; 12 ],
        (512, 0xe6af2b7f) ) );
  ]

(* Allocation order across a crash mount.  On a 4-CPU image, files are
   created, some are unlinked (holes in the inode tables and in the
   directory's dentry slots) and two multi-extent files are shrunk (one
   frees inline slots only, one inline and overflow slots); the image is
   then remounted without an unmount, and new files, extents and names
   take the freed places.  Pinned: the inode number of every new file,
   the extent slot of every record of the two grown files, the dentry
   slot address of every new or renamed name, and the final image CRC.
   The mount rebuilds each of these free sets, so a change in the order
   it hands them out shows up here. *)
let order_cfg = Types.config ~cpus:4 ~inodes_per_cpu:64 ()

let run_alloc_order () =
  let dev = Device.create ~size:(32 * mib) () in
  let fs = Winefs.Fs.format dev order_cfg in
  let cpus = Array.init 4 (fun id -> Cpu.make ~id ()) in
  let page = pattern Units.base_page 5 in
  let write fs cpu path pages =
    let fd =
      if Winefs.Fs.exists fs cpu path then Winefs.Fs.openf fs cpu path Types.o_rdwr
      else Winefs.Fs.create fs cpu path
    in
    (* Every other page: each write is a record of its own. *)
    List.iter
      (fun p -> ignore (Winefs.Fs.pwrite fs cpu fd ~off:(p * Units.base_page) ~src:page))
      pages;
    Winefs.Fs.close fs cpu fd
  in
  let shrink fs cpu path pages =
    let fd = Winefs.Fs.openf fs cpu path Types.o_rdwr in
    Winefs.Fs.ftruncate fs cpu fd (pages * Units.base_page);
    Winefs.Fs.close fs cpu fd
  in
  let c0 = cpus.(0) in
  Winefs.Fs.mkdir fs c0 "/d";
  for i = 0 to 11 do
    write fs cpus.(i mod 4) (Printf.sprintf "/d/f%d" i) [ 0 ]
  done;
  write fs cpus.(1) "/wide" [ 0; 2; 4; 6; 8; 10 ];
  write fs cpus.(2) "/long" (List.init 12 (fun i -> 2 * i));
  List.iter (fun i -> Winefs.Fs.unlink fs c0 (Printf.sprintf "/d/f%d" i)) [ 1; 4; 6; 9 ];
  shrink fs c0 "/wide" 5;
  shrink fs c0 "/long" 13;
  (* Crash: remount without unmount. *)
  let fs = Winefs.Fs.mount dev order_cfg in
  let inos =
    List.init 6 (fun i ->
        let path = Printf.sprintf "/d/g%d" i in
        write fs cpus.(i mod 4) path [ 0 ];
        (Winefs.Fs.stat fs c0 path).st_ino)
  in
  write fs cpus.(1) "/wide" [ 12; 14; 16 ];
  write fs cpus.(2) "/long" [ 30; 32; 34 ];
  Winefs.Fs.rename fs c0 ~old_path:"/d/f2" ~new_path:"/d/h2";
  Winefs.Fs.rename fs c0 ~old_path:"/d/f3" ~new_path:"/moved";
  let ino_of path = (Winefs.Fs.stat fs c0 path).st_ino in
  let grown = [ ino_of "/wide"; ino_of "/long" ] in
  (* Read the slots back with the mount's own table scan. *)
  let layout = Winefs.Layout.compute ~size:(Device.size dev) ~cpus:4 ~inodes_per_cpu:64 in
  let txns = Winefs.Txn.attach dev layout in
  let inodes = Winefs.Inode.create ~dev ~layout ~txns in
  ignore (Winefs.Inode.scan_tables inodes c0 ~on_refuse:(fun _ _ -> ()));
  let slots =
    List.map
      (fun ino ->
        let f = Winefs.Inode.find inodes ino in
        Repro_rbtree.Ordmap.Int_map.fold f.records ~init:[]
          ~f:(fun acc off (r : Winefs.Inode.record) -> (off / Units.base_page, r.slot) :: acc)
        |> List.rev)
      grown
  in
  let dentry_slot dir name =
    let d = Winefs.Inode.find inodes (ino_of dir) in
    let found = ref (-1) in
    Repro_rbtree.Ordmap.Int_map.iter d.records (fun _ (r : Winefs.Inode.record) ->
        let buf = Device.read_string dev c0 ~off:r.phys ~len:r.len in
        let buf = Bytes.unsafe_of_string buf in
        for i = 0 to (r.len / Winefs.Codec.dentry_bytes) - 1 do
          match Winefs.Codec.Dentry.decode_at buf (i * Winefs.Codec.dentry_bytes) with
          | Some e when e.name = name -> found := r.phys + (i * Winefs.Codec.dentry_bytes)
          | Some _ | None -> ()
        done);
    !found
  in
  let dentries =
    List.map (fun i -> dentry_slot "/d" (Printf.sprintf "g%d" i)) [ 0; 1; 2; 3; 4; 5 ]
    @ [ dentry_slot "/d" "h2"; dentry_slot "/" "moved" ]
  in
  (inos, slots, dentries, image_crc dev)

let test_alloc_order () =
  let inos, slots, dentries, crc = run_alloc_order () in
  Alcotest.(check (list int)) "new inode numbers" [ 4; 65; 130; 196; 6; 67 ] inos;
  Alcotest.(check (list (list (pair int int))))
    "extent slots (page, slot)"
    [
      [ (0, 0); (2, 1); (4, 2); (12, 7); (14, 6); (16, 5) ];
      [ (0, 0); (2, 1); (4, 2); (6, 3); (8, 4); (10, 5); (12, 6); (30, 177); (32, 176); (34, 175) ];
    ]
    slots;
  Alcotest.(check (list int))
    "dentry slot addresses"
    [ 2518976; 2518912; 2518848; 2518784; 2518720; 2518656; 2518592; 2514880 ]
    dentries;
  Alcotest.(check int) "image CRC32C" 0x71e4de44 crc

let suite =
  Alcotest.test_case "golden image CRC" `Quick test_image_crc
  :: Alcotest.test_case "golden counter totals" `Quick test_counter_totals
  :: List.map
       (fun (factory, pins) ->
         Alcotest.test_case ("golden " ^ factory.Registry.fs_name ^ " pins") `Quick
           (test_baseline factory pins))
       baseline_pins
  @ List.map
      (fun (factory, pins) ->
        Alcotest.test_case ("golden " ^ factory.Registry.fs_name ^ " mmap pins") `Quick
          (test_mmap factory pins))
      mmap_pins
  @ List.map
      (fun (damaged, pins) ->
        Alcotest.test_case
          (if damaged then "golden recovery mount, damaged tables" else "golden recovery mount")
          `Quick
          (test_recovery_mount ~damaged pins))
      recovery_pins
  @ [
      Alcotest.test_case "golden recovery mount, 2481 inodes in 40 directories" `Quick
        test_many_dirs_mount;
      Alcotest.test_case "golden allocation order across a crash mount" `Quick test_alloc_order;
    ]
