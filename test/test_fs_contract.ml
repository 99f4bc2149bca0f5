(* Generic file-system contract tests: every registered file system
   (WineFS strict/relaxed + six baselines) must satisfy the same POSIX-ish
   semantics through the common interface. *)

open Repro_util
module Device = Repro_pmem.Device
module Types = Repro_vfs.Types
module Fs_intf = Repro_vfs.Fs_intf
module Registry = Repro_baselines.Registry

let mib = Units.mib

type visitor = { visit : 'a. (module Fs_intf.S with type t = 'a) -> 'a -> unit }

let with_fs ?(size = 64 * mib) (factory : Registry.factory) (v : visitor) =
  let dev = Device.create ~cost:Device.Cost.free ~size () in
  let cfg = Types.config ~cpus:2 ~inodes_per_cpu:512 () in
  let (Fs_intf.Handle ((module F), fs)) = factory.make dev cfg in
  v.visit (module F) fs

let contract (factory : Registry.factory) () =
  with_fs factory
    { visit = (fun (type a) (module F : Fs_intf.S with type t = a) (fs : a) ->
      let c = Cpu.make ~id:0 () in
      (* Basic data path. *)
      let fd = F.create fs c "/file" in
      Alcotest.(check int) "write" 5 (F.pwrite fs c fd ~off:0 ~src:"hello");
      Alcotest.(check string) "read" "hello" (F.pread fs c fd ~off:0 ~len:5);
      Alcotest.(check int) "append" 6 (F.append fs c fd ~src:" world");
      F.fsync fs c fd;
      Alcotest.(check string) "combined" "hello world" (F.pread fs c fd ~off:0 ~len:11);
      Alcotest.(check int) "size" 11 (F.file_size fs fd);
      (* Overwrite. *)
      ignore (F.pwrite fs c fd ~off:6 ~src:"WINES");
      F.fsync fs c fd;
      Alcotest.(check string) "overwrite" "hello WINES" (F.pread fs c fd ~off:0 ~len:11);
      F.close fs c fd;
      (* Namespace. *)
      F.mkdir fs c "/d";
      F.mkdir fs c "/d/e";
      let fd2 = F.create fs c "/d/e/x" in
      ignore (F.pwrite fs c fd2 ~off:0 ~src:"abc");
      F.fsync fs c fd2;
      F.close fs c fd2;
      Alcotest.(check bool) "exists" true (F.exists fs c "/d/e/x");
      Alcotest.(check bool) "not exists" false (F.exists fs c "/d/e/y");
      Alcotest.(check (list string)) "readdir" [ "e" ] (F.readdir fs c "/d");
      let st = F.stat fs c "/d/e/x" in
      Alcotest.(check int) "stat size" 3 st.Types.st_size;
      Alcotest.(check bool) "stat kind" true (st.st_kind = Types.Regular);
      (* Rename (including across directories, replacing a target). *)
      F.rename fs c ~old_path:"/d/e/x" ~new_path:"/d/x2";
      Alcotest.(check bool) "rename moved" true (F.exists fs c "/d/x2");
      Alcotest.(check bool) "rename source gone" false (F.exists fs c "/d/e/x");
      let fd3 = F.create fs c "/victim" in
      ignore (F.pwrite fs c fd3 ~off:0 ~src:"victim");
      F.fsync fs c fd3;
      F.close fs c fd3;
      F.rename fs c ~old_path:"/d/x2" ~new_path:"/victim";
      let fd4 = F.openf fs c "/victim" Types.o_rdonly in
      Alcotest.(check string) "replace target content" "abc" (F.pread fs c fd4 ~off:0 ~len:3);
      F.close fs c fd4;
      (* Unlink and errors. *)
      F.unlink fs c "/victim";
      Alcotest.(check bool) "unlinked" false (F.exists fs c "/victim");
      (match F.unlink fs c "/victim" with
      | () -> Alcotest.fail "unlink of missing file must fail"
      | exception Types.Error (ENOENT, _) -> ());
      (match F.openf fs c "/nope" Types.o_rdonly with
      | _ -> Alcotest.fail "open of missing file must fail"
      | exception Types.Error (ENOENT, _) -> ());
      (match F.mkdir fs c "/d" with
      | () -> Alcotest.fail "mkdir of existing dir must fail"
      | exception Types.Error (EEXIST, _) -> ());
      (* rmdir semantics. *)
      (match F.rmdir fs c "/d" with
      | () -> Alcotest.fail "rmdir of non-empty dir must fail"
      | exception Types.Error (ENOTEMPTY, _) -> ());
      F.rmdir fs c "/d/e";
      F.rmdir fs c "/d";
      (* Truncate and sparse behaviour. *)
      let fd5 = F.create fs c "/t" in
      ignore (F.pwrite fs c fd5 ~off:0 ~src:(String.make 10000 'z'));
      F.fsync fs c fd5;
      F.ftruncate fs c fd5 100;
      Alcotest.(check int) "truncated size" 100 (F.file_size fs fd5);
      Alcotest.(check string) "truncated content" (String.make 4 'z')
        (F.pread fs c fd5 ~off:0 ~len:4);
      F.ftruncate fs c fd5 9000;
      Alcotest.(check int) "extended size" 9000 (F.file_size fs fd5);
      F.close fs c fd5;
      (* fallocate. *)
      let fd6 = F.create fs c "/fa" in
      F.fallocate fs c fd6 ~off:0 ~len:(3 * mib);
      Alcotest.(check int) "fallocate size" (3 * mib) (F.file_size fs fd6);
      let st = F.stat fs c "/fa" in
      Alcotest.(check bool) "fallocate blocks" true (st.st_blocks >= 3 * mib);
      F.close fs c fd6;
      (* Space accounting sanity. *)
      let s = F.statfs fs in
      Alcotest.(check bool) "used > 0" true (s.used > 0);
      Alcotest.(check bool) "free + used = capacity" true (s.free + s.used = s.capacity)); }

let mmap_contract (factory : Registry.factory) () =
  with_fs factory
    { visit = (fun (type a) (module F : Fs_intf.S with type t = a) (fs : a) ->
      let c = Cpu.make ~id:0 () in
      let fd = F.create fs c "/m" in
      F.fallocate fs c fd ~off:0 ~len:(4 * mib);
      let vm = Repro_memsim.Vmem.create (F.device fs) in
      let r = Repro_memsim.Vmem.mmap vm ~len:(4 * mib) ~backing:(F.mmap_backing fs fd) () in
      Repro_memsim.Vmem.write vm c r ~off:mib ~src:"mapped data";
      Repro_memsim.Vmem.persist vm c r ~off:mib ~len:11;
      Alcotest.(check string) "mmap write visible via pread" "mapped data"
        (F.pread fs c fd ~off:mib ~len:11);
      (* Every registered FS must survive a full prefault. *)
      Repro_memsim.Vmem.prefault vm c r;
      let total =
        Repro_memsim.Vmem.huge_mapped_bytes vm r
        + (Repro_memsim.Vmem.base_mapped_pages vm r * Units.base_page)
      in
      Alcotest.(check bool) "fully mapped" true (total >= 4 * mib);
      F.close fs c fd); }

(* Out-of-range offsets, lengths and sizes are EINVAL on every file
   system — never accepted, never an internal exception — and leave the
   file intact. *)
let bad_ranges (factory : Registry.factory) () =
  with_fs factory
    { visit = (fun (type a) (module F : Fs_intf.S with type t = a) (fs : a) ->
      let c = Cpu.make ~id:0 () in
      let fd = F.create fs c "/r" in
      ignore (F.pwrite fs c fd ~off:0 ~src:"hello world");
      let einval what op =
        match op () with
        | () -> Alcotest.failf "%s accepted" what
        | exception Types.Error (EINVAL, _) -> ()
        | exception e -> Alcotest.failf "%s raised %s, not EINVAL" what (Printexc.to_string e)
      in
      einval "pread off=-1" (fun () -> ignore (F.pread fs c fd ~off:(-1) ~len:5));
      einval "pwrite off=-1" (fun () -> ignore (F.pwrite fs c fd ~off:(-1) ~src:"x"));
      einval "fallocate off=-8192" (fun () -> F.fallocate fs c fd ~off:(-8192) ~len:4096);
      einval "fallocate len=0" (fun () -> F.fallocate fs c fd ~off:0 ~len:0);
      einval "fallocate len=-1" (fun () -> F.fallocate fs c fd ~off:0 ~len:(-1));
      einval "ftruncate -1" (fun () -> F.ftruncate fs c fd (-1));
      Alcotest.(check string) "file intact" "hello world" (F.pread fs c fd ~off:0 ~len:11);
      F.ftruncate fs c fd 5;
      Alcotest.(check string) "truncate still works" "hello" (F.pread fs c fd ~off:0 ~len:11);
      F.close fs c fd); }

(* Shrinking to an unaligned size and growing again reads zeros past the
   old size: the kept block's tail must not resurface. *)
let shrink_then_grow (factory : Registry.factory) () =
  with_fs factory
    { visit = (fun (type a) (module F : Fs_intf.S with type t = a) (fs : a) ->
      let c = Cpu.make ~id:0 () in
      let fd = F.create fs c "/s" in
      ignore (F.pwrite fs c fd ~off:0 ~src:(String.make 200 'x'));
      F.fsync fs c fd;
      F.ftruncate fs c fd 100;
      F.ftruncate fs c fd 8192;
      Alcotest.(check string) "kept bytes" (String.make 100 'x') (F.pread fs c fd ~off:0 ~len:100);
      Alcotest.(check string) "grown tail reads zeros" (String.make 8092 '\000')
        (F.pread fs c fd ~off:100 ~len:8092);
      F.close fs c fd); }

(* A fault the file system cannot back answers Sigbus, with or without
   hugepages allowed; it never raises ENOSPC out of the fault handler. *)
let fault_on_full_device (factory : Registry.factory) () =
  with_fs ~size:(16 * mib) factory
    { visit = (fun (type a) (module F : Fs_intf.S with type t = a) (fs : a) ->
      let c = Cpu.make ~id:0 () in
      let fd = F.create fs c "/hole" in
      F.ftruncate fs c fd (4 * mib);
      let fill = F.create fs c "/fill" in
      let off = ref 0 in
      List.iter
        (fun len ->
          try
            while true do
              F.fallocate fs c fill ~off:!off ~len;
              off := !off + len
            done
          with Types.Error (ENOSPC, _) -> ())
        [ mib; 64 * 1024; Units.base_page ];
      let backing = F.mmap_backing fs fd in
      List.iter
        (fun huge_ok ->
          match backing c ~file_off:0 ~huge_ok with
          | Repro_memsim.Vmem.Sigbus -> ()
          | Huge _ | Base _ -> Alcotest.failf "huge_ok=%b: a full device backed the fault" huge_ok
          | exception e -> Alcotest.failf "huge_ok=%b: raised %s" huge_ok (Printexc.to_string e))
        [ true; false ];
      F.close fs c fill;
      F.close fs c fd); }

(* With less than a hugepage free, a hugepage-allowed fault on a hole
   still maps a base page, whether the hole spans the whole chunk or
   sits before a written page. *)
let fault_with_little_space (factory : Registry.factory) () =
  with_fs ~size:(16 * mib) factory
    { visit = (fun (type a) (module F : Fs_intf.S with type t = a) (fs : a) ->
      let c = Cpu.make ~id:0 () in
      let fd = F.create fs c "/sparse" in
      F.ftruncate fs c fd (4 * mib);
      ignore (F.pwrite fs c fd ~off:Units.base_page ~src:"w");
      let spare = F.create fs c "/spare" in
      F.fallocate fs c spare ~off:0 ~len:mib;
      F.close fs c spare;
      let fill = F.create fs c "/fill" in
      let off = ref 0 in
      List.iter
        (fun len ->
          try
            while true do
              F.fallocate fs c fill ~off:!off ~len;
              off := !off + len
            done
          with Types.Error (ENOSPC, _) -> ())
        [ mib; 64 * 1024; Units.base_page ];
      F.unlink fs c "/spare";
      let backing = F.mmap_backing fs fd in
      List.iter
        (fun file_off ->
          match backing c ~file_off ~huge_ok:true with
          | Repro_memsim.Vmem.Base _ -> ()
          | Huge _ -> Alcotest.failf "file_off=%d: a hugepage with 1 MiB free" file_off
          | Sigbus -> Alcotest.failf "file_off=%d: Sigbus with 1 MiB free" file_off
          | exception e -> Alcotest.failf "file_off=%d: raised %s" file_off (Printexc.to_string e))
        [ 0; 2 * mib ];
      F.close fs c fill;
      F.close fs c fd); }

(* A fallocated range reads zeros even when its blocks last held a
   deleted file's bytes, before and after an append past it. *)
let fallocate_reads_zeros (factory : Registry.factory) () =
  with_fs factory
    { visit = (fun (type a) (module F : Fs_intf.S with type t = a) (fs : a) ->
      let c = Cpu.make ~id:0 () in
      let fd = F.create fs c "/old" in
      ignore (F.pwrite fs c fd ~off:0 ~src:(String.make mib 'x'));
      F.fsync fs c fd;
      F.close fs c fd;
      F.unlink fs c "/old";
      let fd = F.create fs c "/new" in
      F.fallocate fs c fd ~off:0 ~len:mib;
      let zeros = String.make mib '\000' in
      Alcotest.(check bool) "fallocated range reads zeros" true
        (F.pread fs c fd ~off:0 ~len:mib = zeros);
      ignore (F.append fs c fd ~src:"tail");
      Alcotest.(check bool) "zeros after an append" true (F.pread fs c fd ~off:0 ~len:mib = zeros);
      Alcotest.(check string) "appended bytes" "tail" (F.pread fs c fd ~off:mib ~len:4);
      F.fsync fs c fd;
      ignore (F.pwrite fs c fd ~off:5000 ~src:"data");
      Alcotest.(check string) "write inside the range reads back"
        (String.make 10 '\000' ^ "data" ^ String.make 10 '\000')
        (F.pread fs c fd ~off:4990 ~len:24);
      ignore (F.pwrite fs c fd ~off:(mib - 2) ~src:"relinked");
      F.fsync fs c fd;
      Alcotest.(check string) "write across the end reads back" "relinked"
        (F.pread fs c fd ~off:(mib - 2) ~len:8);
      F.close fs c fd); }

(* Space a truncate gave back can be fallocated again and reads zeros;
   bytes stored through a mapping of a fallocated range read back, and
   the mapping shows no deleted file's bytes. *)
let refallocate (factory : Registry.factory) () =
  with_fs factory
    { visit = (fun (type a) (module F : Fs_intf.S with type t = a) (fs : a) ->
      let c = Cpu.make ~id:0 () in
      let page = Units.base_page in
      let fd = F.create fs c "/old" in
      ignore (F.pwrite fs c fd ~off:0 ~src:(String.make (4 * mib) 'y'));
      F.fsync fs c fd;
      F.close fs c fd;
      F.unlink fs c "/old";
      let fd = F.create fs c "/page0" in
      F.fallocate fs c fd ~off:0 ~len:(4 * mib);
      ignore (F.pwrite fs c fd ~off:0 ~src:(String.make page 'p'));
      let vm = Repro_memsim.Vmem.create (F.device fs) in
      let r = Repro_memsim.Vmem.mmap vm ~len:(4 * mib) ~backing:(F.mmap_backing fs fd) () in
      Repro_memsim.Vmem.write vm c r ~off:(2 * page) ~src:"mapped";
      Repro_memsim.Vmem.persist vm c r ~off:(2 * page) ~len:6;
      Alcotest.(check string) "mapped bytes past a written page read back" "mapped"
        (F.pread fs c fd ~off:(2 * page) ~len:6);
      Alcotest.(check string) "written page reads back" (String.make page 'p')
        (F.pread fs c fd ~off:0 ~len:page);
      let seen = Bytes.make page 'z' in
      Repro_memsim.Vmem.read_into vm c r ~off:(3 * page) ~dst:seen ~dst_off:0 ~len:page;
      Alcotest.(check string) "mapped unwritten page reads zeros" (String.make page '\000')
        (Bytes.to_string seen);
      F.close fs c fd;
      let len = 64 * 1024 in
      let fd = F.create fs c "/re" in
      F.fallocate fs c fd ~off:0 ~len;
      F.ftruncate fs c fd 0;
      F.fallocate fs c fd ~off:0 ~len;
      F.close fs c fd;
      let fd = F.openf fs c "/re" { Types.o_rdwr with trunc = true } in
      F.fallocate fs c fd ~off:0 ~len;
      Alcotest.(check bool) "refallocated range reads zeros" true
        (F.pread fs c fd ~off:0 ~len = String.make len '\000');
      F.close fs c fd;
      let fd = F.create fs c "/mapped" in
      F.fallocate fs c fd ~off:0 ~len:(4 * mib);
      ignore (F.pwrite fs c fd ~off:(mib + 100) ~src:"written");
      let vm = Repro_memsim.Vmem.create (F.device fs) in
      let r = Repro_memsim.Vmem.mmap vm ~len:(4 * mib) ~backing:(F.mmap_backing fs fd) () in
      Repro_memsim.Vmem.write vm c r ~off:4096 ~src:"mapped";
      Repro_memsim.Vmem.persist vm c r ~off:4096 ~len:6;
      Alcotest.(check string) "mapped bytes read back" "mapped" (F.pread fs c fd ~off:4096 ~len:6);
      F.close fs c fd); }

let throughput_sanity (factory : Registry.factory) () =
  (* With the real cost model, doing more work must cost more time. *)
  let dev = Device.create ~size:(32 * mib) () in
  let cfg = Types.config ~cpus:2 ~inodes_per_cpu:256 () in
  let (Fs_intf.Handle ((module F), fs)) = factory.make dev cfg in
  let c = Cpu.make ~id:0 () in
  let fd = F.create fs c "/w" in
  let t0 = Cpu.now c in
  ignore (F.pwrite fs c fd ~off:0 ~src:(String.make 4096 'a'));
  let t1 = Cpu.now c in
  ignore (F.pwrite fs c fd ~off:0 ~src:(String.make (256 * 1024) 'b'));
  let t2 = Cpu.now c in
  Alcotest.(check bool) "4K write costs time" true (t1 > t0);
  Alcotest.(check bool) "256K write costs more" true (t2 - t1 > t1 - t0);
  F.close fs c fd

let suite =
  List.concat_map
    (fun (factory : Registry.factory) ->
      [
        Alcotest.test_case (factory.fs_name ^ " contract") `Quick (contract factory);
        Alcotest.test_case (factory.fs_name ^ " mmap") `Quick (mmap_contract factory);
        Alcotest.test_case (factory.fs_name ^ " costs") `Quick (throughput_sanity factory);
        Alcotest.test_case (factory.fs_name ^ " bad ranges") `Quick (bad_ranges factory);
        Alcotest.test_case (factory.fs_name ^ " shrink then grow reads zeros") `Quick
          (shrink_then_grow factory);
        Alcotest.test_case (factory.fs_name ^ " fault on a full device is Sigbus") `Quick
          (fault_on_full_device factory);
        Alcotest.test_case (factory.fs_name ^ " fault with little space maps a base page") `Quick
          (fault_with_little_space factory);
        Alcotest.test_case (factory.fs_name ^ " fallocate reads zeros") `Quick
          (fallocate_reads_zeros factory);
        Alcotest.test_case (factory.fs_name ^ " refallocate") `Quick (refallocate factory);
      ])
    Registry.all
