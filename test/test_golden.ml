(* Golden-image regression tests.

   One fixed, deterministic workload (strict mode, 2 CPUs) is replayed
   against every file system; the resulting PM image CRC32C, the full
   operation/byte counter snapshot and both CPUs' final simulated clocks
   must match values captured before a refactor.  WineFS runs under the
   free cost model (its pins predate the Txn/Inode/Extent_map/Datapath/
   Namespace split); the baselines run under the Optane cost model, so
   the clocks pin their charging order too.  Any drift in journal
   traffic, allocation order, on-PM encodings, cost charging or counter
   accounting shows up here as a diff. *)

open Repro_util
module Device = Repro_pmem.Device
module Types = Repro_vfs.Types
module Fs_intf = Repro_vfs.Fs_intf
module Registry = Repro_baselines.Registry

let mib = Units.mib

(* Deterministic payload: same bytes on every run. *)
let pattern n seed = String.init n (fun i -> Char.chr ((i + (31 * seed)) land 0xff))

let expected_image_crc = 0x5d8dd747

let expected_counters =
  [
    ("fs.alloc_bytes", 4354048);
    ("fs.cow_bytes", 12288);
    ("fs.create", 22);
    ("fs.data_journal_bytes", 70000);
    ("fs.fallocate", 1);
    ("fs.fsync", 21);
    ("fs.ftruncate", 2);
    ("fs.mkdir", 2);
    ("fs.read_bytes", 80000);
    ("fs.rename", 1);
    ("fs.unlink", 7);
    ("fs.write_bytes", 204808);
  ]

let run_workload ~cost (make : Device.t -> Types.config -> Fs_intf.handle) =
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
  (dev, Counters.snapshot (Fs.counters fs), (Cpu.now c0, Cpu.now c1))

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

let suite =
  Alcotest.test_case "golden image CRC" `Quick test_image_crc
  :: Alcotest.test_case "golden counter totals" `Quick test_counter_totals
  :: List.map
       (fun (factory, pins) ->
         Alcotest.test_case ("golden " ^ factory.Registry.fs_name ^ " pins") `Quick
           (test_baseline factory pins))
       baseline_pins
