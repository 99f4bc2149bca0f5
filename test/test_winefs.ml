(* WineFS end-to-end tests: namespace, data path, allocation alignment,
   mount/unmount round trips, hugepage fault policy, reactive rewriting. *)

open Repro_util
module Device = Repro_pmem.Device
module Types = Repro_vfs.Types
module Vmem = Repro_memsim.Vmem
module Fs = Winefs.Fs

let mib = Units.mib

let make_fs ?(size = 64 * mib) ?(cpus = 2) ?(mode = Types.Strict) () =
  let dev = Device.create ~cost:Device.Cost.free ~size () in
  let cfg = Types.config ~cpus ~mode ~inodes_per_cpu:512 () in
  (Fs.format dev cfg, dev, cfg)

let cpu () = Cpu.make ~id:0 ()

let test_create_write_read () =
  let fs, _, _ = make_fs () in
  let c = cpu () in
  let fd = Fs.create fs c "/hello.txt" in
  let n = Fs.pwrite fs c fd ~off:0 ~src:"hello, persistent world" in
  Alcotest.(check int) "write length" 23 n;
  Alcotest.(check string) "read back" "hello, persistent world" (Fs.pread fs c fd ~off:0 ~len:23);
  Alcotest.(check string) "partial read" "persistent" (Fs.pread fs c fd ~off:7 ~len:10);
  Alcotest.(check string) "read past EOF truncated" "world" (Fs.pread fs c fd ~off:18 ~len:100);
  let st = Fs.stat fs c "/hello.txt" in
  Alcotest.(check int) "size" 23 st.st_size;
  Fs.close fs c fd

let test_namespace () =
  let fs, _, _ = make_fs () in
  let c = cpu () in
  Fs.mkdir fs c "/a";
  Fs.mkdir fs c "/a/b";
  let fd = Fs.create fs c "/a/b/f1" in
  Fs.close fs c fd;
  Alcotest.(check (list string)) "readdir /a" [ "b" ] (Fs.readdir fs c "/a");
  Alcotest.(check (list string)) "readdir /a/b" [ "f1" ] (Fs.readdir fs c "/a/b");
  Alcotest.(check bool) "exists" true (Fs.exists fs c "/a/b/f1");
  Alcotest.check_raises "duplicate mkdir" (Types.Error (EEXIST, "b")) (fun () ->
      try Fs.mkdir fs c "/a/b" with Types.Error (e, _) -> raise (Types.Error (e, "b")));
  Fs.rename fs c ~old_path:"/a/b/f1" ~new_path:"/a/f2";
  Alcotest.(check bool) "old gone" false (Fs.exists fs c "/a/b/f1");
  Alcotest.(check bool) "new exists" true (Fs.exists fs c "/a/f2");
  Fs.unlink fs c "/a/f2";
  Alcotest.check_raises "rmdir non-empty" (Types.Error (ENOTEMPTY, "x")) (fun () ->
      try Fs.rmdir fs c "/a" with Types.Error (e, _) -> raise (Types.Error (e, "x")));
  Fs.rmdir fs c "/a/b";
  Alcotest.(check (list string)) "a now empty" [] (Fs.readdir fs c "/a")

let test_unlink_frees_space () =
  let fs, _, _ = make_fs () in
  let c = cpu () in
  (* Warm up the root directory's dentry block so it is not counted. *)
  let fd0 = Fs.create fs c "/warmup" in
  Fs.close fs c fd0;
  Fs.unlink fs c "/warmup";
  let before = (Fs.statfs fs).free in
  let fd = Fs.create fs c "/big" in
  Fs.fallocate fs c fd ~off:0 ~len:(8 * mib);
  Fs.close fs c fd;
  let during = (Fs.statfs fs).free in
  Alcotest.(check bool) "space consumed" true (during <= before - (8 * mib));
  Fs.unlink fs c "/big";
  Alcotest.(check int) "space restored" before (Fs.statfs fs).free

let test_large_write_uses_aligned_extents () =
  let fs, _, _ = make_fs () in
  let c = cpu () in
  let fd = Fs.create fs c "/big" in
  Fs.fallocate fs c fd ~off:0 ~len:(4 * mib);
  let exts = Fs.file_extents fs c "/big" in
  (* Every whole 2MB file chunk must sit on a 2MB-aligned physical run. *)
  List.iter
    (fun (file_off, phys, len) ->
      if Units.is_aligned file_off Units.huge_page && len >= Units.huge_page then
        Alcotest.(check bool) "chunk aligned" true (Units.is_aligned phys Units.huge_page))
    exts;
  Alcotest.(check bool) "few extents for a 4MB file" true (List.length exts <= 3);
  Fs.close fs c fd

let test_small_files_use_holes () =
  let fs, _, _ = make_fs () in
  let c = cpu () in
  let aligned_before = (Fs.statfs fs).aligned_free_2m in
  (* 64 small files must not consume whole aligned extents each. *)
  for i = 1 to 64 do
    let fd = Fs.create fs c (Printf.sprintf "/s%d" i) in
    ignore (Fs.pwrite fs c fd ~off:0 ~src:(String.make 1000 'x'));
    Fs.close fs c fd
  done;
  let aligned_after = (Fs.statfs fs).aligned_free_2m in
  Alcotest.(check bool) "aligned extents preserved" true (aligned_before - aligned_after <= 2)

let test_overwrite_strict_atomic_content () =
  let fs, _, _ = make_fs () in
  let c = cpu () in
  let fd = Fs.create fs c "/f" in
  ignore (Fs.pwrite fs c fd ~off:0 ~src:(String.make 8192 'a'));
  ignore (Fs.pwrite fs c fd ~off:1000 ~src:(String.make 3000 'b'));
  let data = Fs.pread fs c fd ~off:0 ~len:8192 in
  Alcotest.(check char) "head intact" 'a' data.[999];
  Alcotest.(check char) "overwrite applied" 'b' data.[1000];
  Alcotest.(check char) "overwrite end" 'b' data.[3999];
  Alcotest.(check char) "tail intact" 'a' data.[4000];
  Fs.close fs c fd

let test_sparse_and_truncate () =
  let fs, _, _ = make_fs () in
  let c = cpu () in
  let fd = Fs.create fs c "/sparse" in
  Fs.ftruncate fs c fd (10 * mib);
  Alcotest.(check int) "sparse size" (10 * mib) (Fs.file_size fs fd);
  let st = Fs.stat fs c "/sparse" in
  Alcotest.(check int) "no blocks allocated" 0 st.st_blocks;
  ignore (Fs.pwrite fs c fd ~off:(5 * mib) ~src:"data in the middle");
  Alcotest.(check string) "hole reads zeros" (String.make 4 '\000') (Fs.pread fs c fd ~off:100 ~len:4);
  Alcotest.(check string) "middle data" "data in the middle"
    (Fs.pread fs c fd ~off:(5 * mib) ~len:18);
  Fs.ftruncate fs c fd mib;
  Alcotest.(check int) "shrunk" mib (Fs.file_size fs fd);
  let st = Fs.stat fs c "/sparse" in
  Alcotest.(check int) "data beyond truncation freed" 0 st.st_blocks;
  Fs.close fs c fd

let test_unmount_mount_roundtrip () =
  let fs, dev, cfg = make_fs () in
  let c = cpu () in
  Fs.mkdir fs c "/dir";
  let fd = Fs.create fs c "/dir/file" in
  ignore (Fs.pwrite fs c fd ~off:0 ~src:"persist me");
  Fs.close fs c fd;
  Fs.set_xattr_align fs c "/dir/file" true;
  let free_before = (Fs.statfs fs).free in
  Fs.unmount fs c;
  let fs2 = Fs.mount dev cfg in
  Alcotest.(check bool) "file survives" true (Fs.exists fs2 c "/dir/file");
  let fd2 = Fs.openf fs2 c "/dir/file" Types.o_rdonly in
  Alcotest.(check string) "content survives" "persist me" (Fs.pread fs2 c fd2 ~off:0 ~len:10);
  Alcotest.(check int) "free space identical" free_before (Fs.statfs fs2).free;
  Alcotest.(check (list string)) "dir listing" [ "file" ] (Fs.readdir fs2 c "/dir");
  Fs.close fs2 c fd2

let test_mount_without_clean_unmount () =
  let fs, dev, cfg = make_fs () in
  let c = cpu () in
  for i = 1 to 20 do
    let fd = Fs.create fs c (Printf.sprintf "/f%d" i) in
    ignore (Fs.pwrite fs c fd ~off:0 ~src:(String.make (i * 100) 'x'));
    Fs.close fs c fd
  done;
  (* Aligned-pool extents carry the provenance bit in their stored
     length; the scan must strip it. *)
  let fd = Fs.create fs c "/big" in
  Fs.fallocate fs c fd ~off:0 ~len:(4 * mib);
  Fs.close fs c fd;
  let big_extents = Fs.file_extents fs c "/big" in
  let free_before = (Fs.statfs fs).free in
  (* No unmount: mount must rebuild allocator state by scanning. *)
  let fs2 = Fs.mount dev cfg in
  Alcotest.(check int) "free space rebuilt by scan" free_before (Fs.statfs fs2).free;
  Alcotest.(check (list (triple int int int))) "aligned extents reloaded" big_extents
    (Fs.file_extents fs2 c "/big");
  for i = 1 to 20 do
    Alcotest.(check bool) "file present" true (Fs.exists fs2 c (Printf.sprintf "/f%d" i))
  done;
  Alcotest.(check bool) "recovery time accounted" true (Fs.recovery_ns fs2 > 0)

let test_mmap_hugepage_on_aligned_file () =
  let fs, dev, _ = make_fs () in
  let c = cpu () in
  let fd = Fs.create fs c "/mapped" in
  Fs.fallocate fs c fd ~off:0 ~len:(4 * mib);
  let vm = Vmem.create dev in
  let r = Vmem.mmap vm ~len:(4 * mib) ~backing:(Fs.mmap_backing fs fd) () in
  Vmem.prefault vm c r;
  Alcotest.(check int) "entire file hugepage-mapped" (4 * mib) (Vmem.huge_mapped_bytes vm r);
  Alcotest.(check int) "no base pages" 0 (Vmem.base_mapped_pages vm r);
  (* Data written through the mapping is readable through the FS. *)
  Vmem.write vm c r ~off:mib ~src:"through the mapping";
  Alcotest.(check string) "mmap write visible" "through the mapping"
    (Fs.pread fs c fd ~off:mib ~len:19);
  Fs.close fs c fd

let test_mmap_sparse_file_gets_hugepages () =
  (* The LMDB pattern: ftruncate a sparse file, fault pages on demand.
     WineFS allocates whole aligned extents at fault time. *)
  let fs, dev, _ = make_fs () in
  let c = cpu () in
  let fd = Fs.create fs c "/lmdb" in
  Fs.ftruncate fs c fd (8 * mib);
  let vm = Vmem.create dev in
  let r = Vmem.mmap vm ~len:(8 * mib) ~backing:(Fs.mmap_backing fs fd) () in
  Vmem.write vm c r ~off:0 ~src:(String.make 4096 'k');
  Vmem.write vm c r ~off:(3 * mib) ~src:(String.make 4096 'v');
  Alcotest.(check bool) "sparse faults served by hugepages" true
    (Vmem.huge_mapped_bytes vm r >= 4 * mib);
  Alcotest.(check int) "no base pages" 0 (Vmem.base_mapped_pages vm r);
  Fs.close fs c fd

let test_reactive_rewrite () =
  let fs, dev, _ = make_fs () in
  let c = cpu () in
  (* Build a deliberately fragmented file with many small appends
     interleaved with another file's appends. *)
  let fd1 = Fs.create fs c "/frag" in
  let fd2 = Fs.create fs c "/other" in
  for _ = 1 to 512 do
    ignore (Fs.append fs c fd1 ~src:(String.make 4096 'a'));
    ignore (Fs.append fs c fd2 ~src:(String.make 4096 'b'))
  done;
  (* 2MB of data each, interleaved -> fragmented. *)
  let vm = Vmem.create dev in
  let r = Vmem.mmap vm ~len:(2 * mib) ~backing:(Fs.mmap_backing fs fd1) () in
  Vmem.prefault vm c r;
  let huge_before = Vmem.huge_mapped_bytes vm r in
  Vmem.munmap vm r;
  Fs.close fs c fd1;
  Fs.close fs c fd2;
  let n = Fs.run_rewriter fs c in
  Alcotest.(check bool) "rewriter processed the file" true (n >= 1);
  (* The rewrite swaps in a new inode; re-open by path. *)
  let fd = Fs.openf fs c "/frag" Types.o_rdwr in
  let r2 = Vmem.mmap vm ~len:(2 * mib) ~backing:(Fs.mmap_backing fs fd) () in
  Vmem.prefault vm c r2;
  Alcotest.(check bool) "hugepages after rewrite" true
    (Vmem.huge_mapped_bytes vm r2 > huge_before);
  Alcotest.(check string) "content preserved" (String.make 8 'a') (Fs.pread fs c fd ~off:0 ~len:8);
  Alcotest.(check int) "size preserved" (2 * mib) (Fs.file_size fs fd);
  Fs.close fs c fd

let test_append_mode () =
  let fs, _, _ = make_fs () in
  let c = cpu () in
  let fd = Fs.create fs c "/log" in
  ignore (Fs.append fs c fd ~src:"one ");
  ignore (Fs.append fs c fd ~src:"two ");
  ignore (Fs.append fs c fd ~src:"three");
  Alcotest.(check string) "appended" "one two three" (Fs.pread fs c fd ~off:0 ~len:13);
  Fs.close fs c fd

let test_many_extents_overflow_blocks () =
  (* Force a file to have more extents than fit inline, exercising
     overflow blocks and their mount-time reload. *)
  let fs, dev, cfg = make_fs () in
  let c = cpu () in
  let fd1 = Fs.create fs c "/many" in
  let fd2 = Fs.create fs c "/interleave" in
  for i = 0 to 63 do
    ignore (Fs.pwrite fs c fd1 ~off:(i * 8192) ~src:(String.make 4096 (Char.chr (65 + (i mod 26)))));
    ignore (Fs.append fs c fd2 ~src:(String.make 4096 'x'))
  done;
  let exts = Fs.file_extents fs c "/many" in
  Alcotest.(check bool) "more than inline extents" true
    (List.length exts > Winefs.Layout.inline_extents);
  Fs.close fs c fd1;
  Fs.close fs c fd2;
  Fs.unmount fs c;
  let fs2 = Fs.mount dev cfg in
  let fd = Fs.openf fs2 c "/many" Types.o_rdonly in
  for i = 0 to 63 do
    Alcotest.(check string)
      (Printf.sprintf "chunk %d reloaded" i)
      (String.make 4 (Char.chr (65 + (i mod 26))))
      (Fs.pread fs2 c fd ~off:(i * 8192) ~len:4)
  done;
  Fs.close fs2 c fd

let test_relaxed_mode () =
  let fs, _, _ = make_fs ~mode:Types.Relaxed () in
  let c = cpu () in
  let fd = Fs.create fs c "/f" in
  ignore (Fs.pwrite fs c fd ~off:0 ~src:(String.make 4096 'r'));
  ignore (Fs.pwrite fs c fd ~off:0 ~src:(String.make 4096 's'));
  Fs.fsync fs c fd;
  Alcotest.(check string) "relaxed data readable" (String.make 8 's') (Fs.pread fs c fd ~off:0 ~len:8);
  Fs.close fs c fd

let test_enospc () =
  let fs, _, _ = make_fs ~size:(16 * mib) () in
  let c = cpu () in
  let fd = Fs.create fs c "/huge" in
  Alcotest.(check bool) "fallocate beyond capacity raises ENOSPC" true
    (match Fs.fallocate fs c fd ~off:0 ~len:(64 * mib) with
    | () -> false
    | exception Types.Error (ENOSPC, _) -> true);
  Fs.close fs c fd

let suite =
  [
    Alcotest.test_case "create/write/read" `Quick test_create_write_read;
    Alcotest.test_case "namespace ops" `Quick test_namespace;
    Alcotest.test_case "unlink frees space" `Quick test_unlink_frees_space;
    Alcotest.test_case "large writes use aligned extents" `Quick
      test_large_write_uses_aligned_extents;
    Alcotest.test_case "small files use holes" `Quick test_small_files_use_holes;
    Alcotest.test_case "strict overwrite content" `Quick test_overwrite_strict_atomic_content;
    Alcotest.test_case "sparse files and truncate" `Quick test_sparse_and_truncate;
    Alcotest.test_case "unmount/mount roundtrip" `Quick test_unmount_mount_roundtrip;
    Alcotest.test_case "mount after dirty shutdown" `Quick test_mount_without_clean_unmount;
    Alcotest.test_case "mmap hugepages on aligned file" `Quick test_mmap_hugepage_on_aligned_file;
    Alcotest.test_case "mmap sparse file gets hugepages" `Quick test_mmap_sparse_file_gets_hugepages;
    Alcotest.test_case "reactive rewrite" `Quick test_reactive_rewrite;
    Alcotest.test_case "append mode" `Quick test_append_mode;
    Alcotest.test_case "overflow extent blocks" `Quick test_many_extents_overflow_blocks;
    Alcotest.test_case "relaxed mode" `Quick test_relaxed_mode;
    Alcotest.test_case "ENOSPC" `Quick test_enospc;
  ]
