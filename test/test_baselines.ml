(* Baseline-specific behaviours the paper's analysis leans on: NOVA's log
   pages and append CoW amplification, SplitFS's staged appends, Strata's
   digestion, ext4's unwritten-extent zeroing, xfs/PMFS misalignment. *)

open Repro_util
module Device = Repro_pmem.Device
module Types = Repro_vfs.Types
module Vmem = Repro_memsim.Vmem
module Nova = Repro_baselines.Nova
module Splitfs = Repro_baselines.Splitfs
module Strata = Repro_baselines.Strata
module Ext4 = Repro_baselines.Ext4_dax
module Xfs = Repro_baselines.Xfs_dax
module Stats = Repro_stats.Stats

let mk fmt =
  let dev = Device.create ~cost:Device.Cost.free ~size:(96 * Units.mib) () in
  (fmt dev (Types.config ~cpus:2 ~inodes_per_cpu:512 ()), dev)

let cpu () = Cpu.make ~id:0 ()

(* The stats counters [f] adds, each summed over its labels; the
   registry's [enabled] flag is restored afterwards. *)
let counted f =
  let was = Stats.enabled () in
  Stats.set_enabled true;
  Stats.reset ();
  Fun.protect
    ~finally:(fun () -> Stats.set_enabled was)
    (fun () ->
      f ();
      let counters = (Stats.snapshot ()).s_counters in
      fun name ->
        List.fold_left (fun acc (n, _, v) -> if n = name then acc + v else acc) 0 counters)

(* Bytes stored to PM while [f] runs, plain and non-temporal. *)
let stored_bytes f =
  let count = counted f in
  count "pm.store_bytes" + count "pm.nt_store_bytes"

let test_nova_log_pages_fragment () =
  let count =
    counted (fun () ->
        let fs, _ = mk Nova.format in
        let c = cpu () in
        (* Creating files appends to inode logs -> log pages allocated
           from the data area (the Figure-3 mechanism). *)
        for i = 1 to 50 do
          let fd = Nova.create fs c (Printf.sprintf "/f%d" i) in
          Nova.close fs c fd
        done)
  in
  Alcotest.(check bool) "log pages allocated" true (count "fs.log_pages" > 0);
  Alcotest.(check bool) "log appends recorded" true (count "fs.log_appends" >= 100)

let test_nova_append_cow_amplification () =
  (* §5.5 WiredTiger: unaligned appends copy the partial tail block. *)
  let fs, _ = mk Nova.format in
  let c = cpu () in
  let fd = Nova.create fs c "/wt" in
  ignore (Nova.pwrite fs c fd ~off:0 ~src:(String.make 1000 'a'));
  let stored = stored_bytes (fun () -> ignore (Nova.append fs c fd ~src:(String.make 1000 'b'))) in
  (* The 1000-byte append rewrites the whole 4K block: old bytes copied. *)
  Alcotest.(check bool) "write amplification" true (stored > 3000);
  Alcotest.(check string) "content intact" ("a" ^ String.make 1 'a')
    (String.sub (Nova.pread fs c fd ~off:0 ~len:2) 0 2);
  Alcotest.(check string) "appended bytes" "bb" (Nova.pread fs c fd ~off:1000 ~len:2);
  Nova.close fs c fd

let test_nova_strict_overwrite_relocates () =
  (* CoW: overwriting moves the file to fresh blocks. *)
  let fs, _ = mk Nova.format in
  let c = cpu () in
  let fd = Nova.create fs c "/cow" in
  ignore (Nova.pwrite fs c fd ~off:0 ~src:(String.make 8192 'x'));
  let before = Nova.file_extents fs c "/cow" in
  ignore (Nova.pwrite fs c fd ~off:0 ~src:(String.make 8192 'y'));
  let after = Nova.file_extents fs c "/cow" in
  Alcotest.(check bool) "physical location changed" true (before <> after);
  Alcotest.(check string) "new data" "yy" (Nova.pread fs c fd ~off:0 ~len:2);
  Nova.close fs c fd

let test_splitfs_staging_relink () =
  let fs, _ = mk Splitfs.format in
  let c = cpu () in
  let fd = Splitfs.create fs c "/log" in
  ignore (Splitfs.append fs c fd ~src:"one ");
  ignore (Splitfs.append fs c fd ~src:"two ");
  (* Visible before fsync (reads check the staging map)... *)
  Alcotest.(check string) "staged reads" "one two " (Splitfs.pread fs c fd ~off:0 ~len:8);
  Alcotest.(check int) "size includes staged" 8 (Splitfs.file_size fs fd);
  (* ...and after the fsync relink. *)
  Splitfs.fsync fs c fd;
  Alcotest.(check string) "relinked" "one two " (Splitfs.pread fs c fd ~off:0 ~len:8);
  let st = Splitfs.stat fs c "/log" in
  Alcotest.(check int) "committed size" 8 st.Types.st_size;
  Splitfs.close fs c fd

let test_strata_digestion () =
  let fs, _ = mk Strata.format in
  let c = cpu () in
  let fd = Strata.create fs c "/d" in
  ignore (Strata.pwrite fs c fd ~off:0 ~src:(String.make 5000 's'));
  (* Data readable from the log before digestion. *)
  Alcotest.(check string) "read from log" "ss" (Strata.pread fs c fd ~off:0 ~len:2);
  let st = Strata.stat fs c "/d" in
  Alcotest.(check int) "no shared-area blocks yet" 0 st.Types.st_blocks;
  (* mmap forces digestion into the shared area. *)
  let backing = Strata.mmap_backing fs fd in
  let count = counted (fun () -> ignore (backing c ~file_off:0 ~huge_ok:false)) in
  Alcotest.(check bool) "digested" true (count "fs.digests" >= 1);
  Alcotest.(check string) "read after digest" "ss" (Strata.pread fs c fd ~off:0 ~len:2);
  Strata.close fs c fd

let test_strata_cheap_fsync () =
  let fs, _ = mk Strata.format in
  let c = cpu () in
  let fd = Strata.create fs c "/f" in
  ignore (Strata.pwrite fs c fd ~off:0 ~src:(String.make 65536 'q'));
  let t0 = Cpu.now c in
  Strata.fsync fs c fd;
  (* fsync is nearly free: the log is already durable. *)
  Alcotest.(check bool) "fsync cheap" true (Cpu.now c - t0 < 2000);
  Strata.close fs c fd

let test_ext4_unwritten_zeroing_on_fault () =
  let fs, dev = mk Ext4.format in
  let c = cpu () in
  let fd = Ext4.create fs c "/fa" in
  Ext4.fallocate fs c fd ~off:0 ~len:(4 * Units.mib);
  let vm = Vmem.create dev in
  let stored =
    stored_bytes (fun () ->
        let r = Vmem.mmap vm ~len:(4 * Units.mib) ~backing:(Ext4.mmap_backing fs fd) () in
        Vmem.read vm c r ~off:0 ~len:8)
  in
  (* First fault into the unwritten extent zeroes it (§5.4: ext4 zeroes at
     fault, not at fallocate). *)
  Alcotest.(check bool) "fault zeroed" true (stored >= Units.base_page);
  Ext4.close fs c fd

let test_xfs_never_aligned () =
  (* Footnote 1: xfs-DAX gets no hugepages even on a clean file system. *)
  let fs, dev = mk Xfs.format in
  let c = cpu () in
  let fd = Xfs.create fs c "/big" in
  Xfs.fallocate fs c fd ~off:0 ~len:(8 * Units.mib);
  let vm = Vmem.create dev in
  let r = Vmem.mmap vm ~len:(8 * Units.mib) ~backing:(Xfs.mmap_backing fs fd) () in
  Vmem.prefault vm c r;
  Alcotest.(check int) "no hugepages on clean xfs" 0 (Vmem.huge_mapped_bytes vm r);
  Xfs.close fs c fd

let test_ext4_aligned_when_clean () =
  (* ...while clean ext4-DAX does produce hugepage-capable extents. *)
  let fs, dev = mk Ext4.format in
  let c = cpu () in
  let fd = Ext4.create fs c "/big" in
  Ext4.fallocate fs c fd ~off:0 ~len:(8 * Units.mib);
  let vm = Vmem.create dev in
  let r = Vmem.mmap vm ~len:(8 * Units.mib) ~backing:(Ext4.mmap_backing fs fd) () in
  Vmem.prefault vm c r;
  Alcotest.(check bool) "clean ext4 gets hugepages" true
    (Vmem.huge_mapped_bytes vm r >= 6 * Units.mib);
  Ext4.close fs c fd

let suite =
  [
    Alcotest.test_case "NOVA log pages" `Quick test_nova_log_pages_fragment;
    Alcotest.test_case "NOVA append CoW amplification" `Quick test_nova_append_cow_amplification;
    Alcotest.test_case "NOVA overwrite relocates" `Quick test_nova_strict_overwrite_relocates;
    Alcotest.test_case "SplitFS staging + relink" `Quick test_splitfs_staging_relink;
    Alcotest.test_case "Strata digestion" `Quick test_strata_digestion;
    Alcotest.test_case "Strata cheap fsync" `Quick test_strata_cheap_fsync;
    Alcotest.test_case "ext4 zeroes at fault" `Quick test_ext4_unwritten_zeroing_on_fault;
    Alcotest.test_case "xfs never aligned" `Quick test_xfs_never_aligned;
    Alcotest.test_case "ext4 aligned when clean" `Quick test_ext4_aligned_when_clean;
  ]
