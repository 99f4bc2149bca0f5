(* Unit tests for the core layer modules behind the Fs facade: the
   Extent_map record/slot run map (lookup/split/merge, removal budgets),
   the Txn reserve/commit/abort protocol, the recovery mount's inodes
   built on first lookup, its directory pass on corrupt sizes and
   extents, and its extent-slot check on a clean mount. *)

open Repro_util
module Device = Repro_pmem.Device
module Types = Repro_vfs.Types
module Alloc = Repro_alloc.Aligned_alloc
module Layout = Winefs.Layout
module Txn = Winefs.Txn
module Inode = Winefs.Inode
module Extent_map = Winefs.Extent_map
module Namespace = Winefs.Namespace
module Codec = Winefs.Codec
module Sched = Repro_sched.Sched
module Int_map = Repro_rbtree.Ordmap.Int_map

let block = Units.base_page

type stack = {
  dev : Device.t;
  cpu : Cpu.t;
  layout : Layout.t;
  txns : Txn.t;
  inodes : Inode.t;
  map : Extent_map.t;
}

let mk ?(cpus = 1) () =
  let dev = Device.create ~cost:Device.Cost.free ~size:(32 * Units.mib) () in
  let cpu = Cpu.make ~id:0 () in
  let layout = Layout.compute ~size:(Device.size dev) ~cpus ~inodes_per_cpu:64 in
  let txns = Txn.format dev cpu layout in
  let inodes = Inode.create ~dev ~layout ~txns in
  Inode.init_free inodes;
  let alloc = Alloc.create ~cpus ~regions:layout.stripes in
  let map = Extent_map.create ~dev ~layout ~txns ~inodes ~alloc in
  Extent_map.seed_meta_pool map;
  { dev; cpu; layout; txns; inodes; map }

(* A registered regular file with zeroed inline slots (not yet valid on
   PM — these tests exercise the DRAM map + slot persistence only). *)
let mk_file s ino =
  let f = Inode.install s.inodes ino Types.Regular in
  Inode.init_slots s.inodes s.cpu ino;
  f

let data_base s = fst s.layout.Layout.stripes.(0)

let add s f ~file_off ~phys ~len ~asrc =
  Txn.with_txn s.txns s.cpu ~reserve:4 (fun txn ->
      Extent_map.add_record s.map s.cpu txn f ~file_off ~phys ~len ~asrc)

(* -- Extent_map ---------------------------------------------------- *)

let test_lookup_and_merge () =
  let s = mk () in
  let f = mk_file s 2 in
  let base = data_base s in
  add s f ~file_off:0 ~phys:base ~len:block ~asrc:false;
  add s f ~file_off:block ~phys:(base + block) ~len:block ~asrc:false;
  (* Contiguous same-provenance append tail-merged into one record. *)
  Alcotest.(check (option (pair int int)))
    "merged run" (Some (base, 2 * block))
    (Extent_map.lookup_run f ~file_off:0);
  Alcotest.(check (option (pair int int)))
    "mid-run lookup" (Some (base + 100, (2 * block) - 100))
    (Extent_map.lookup_run f ~file_off:100);
  Alcotest.(check int) "one record" 1
    (Repro_rbtree.Ordmap.Int_map.fold f.records ~init:0 ~f:(fun acc _ _ -> acc + 1))

let test_no_merge_across_provenance () =
  let s = mk () in
  let f = mk_file s 2 in
  let base = data_base s in
  add s f ~file_off:0 ~phys:base ~len:block ~asrc:false;
  add s f ~file_off:block ~phys:(base + block) ~len:block ~asrc:true;
  (* Aligned-pool provenance differs: the records must stay separate, or
     the hybrid-atomicity policy (§3.5) would journal a CoW extent. *)
  Alcotest.(check (option (pair int int)))
    "first run ends at the boundary" (Some (base, block))
    (Extent_map.lookup_run f ~file_off:0);
  Alcotest.(check int) "two records" 2
    (Repro_rbtree.Ordmap.Int_map.fold f.records ~init:0 ~f:(fun acc _ _ -> acc + 1))

let test_no_merge_across_stripes () =
  let s = mk ~cpus:2 () in
  let f = mk_file s 2 in
  let boundary = fst s.layout.Layout.stripes.(1) in
  add s f ~file_off:0 ~phys:(boundary - block) ~len:block ~asrc:false;
  add s f ~file_off:block ~phys:boundary ~len:block ~asrc:false;
  (* Adjacent in the file and on PM, but in two per-CPU stripes: one
     record would cross the stripe boundary, which fsck rejects. *)
  Alcotest.(check (option (pair int int)))
    "first run ends at the stripe boundary" (Some (boundary - block, block))
    (Extent_map.lookup_run f ~file_off:0);
  Alcotest.(check int) "two records" 2
    (Repro_rbtree.Ordmap.Int_map.fold f.records ~init:0 ~f:(fun acc _ _ -> acc + 1))

let test_remove_splits_record () =
  let s = mk () in
  let f = mk_file s 2 in
  let base = data_base s in
  add s f ~file_off:0 ~phys:base ~len:(4 * block) ~asrc:false;
  let freed, more =
    Txn.with_txn s.txns s.cpu ~reserve:8 (fun txn ->
        Extent_map.remove_records s.map s.cpu txn f ~file_off:block ~len:block)
  in
  Alcotest.(check (list (pair int int))) "freed the cut" [ (base + block, block) ] freed;
  Alcotest.(check bool) "scan completed" false more;
  Alcotest.(check (option (pair int int)))
    "head kept" (Some (base, block))
    (Extent_map.lookup_run f ~file_off:0);
  Alcotest.(check (option (pair int int))) "hole" None
    (Extent_map.lookup_run f ~file_off:block);
  Alcotest.(check (option (pair int int)))
    "tail kept" (Some (base + (2 * block), 2 * block))
    (Extent_map.lookup_run f ~file_off:(2 * block))

let test_remove_budget_zero () =
  let s = mk () in
  let f = mk_file s 2 in
  let base = data_base s in
  add s f ~file_off:0 ~phys:base ~len:(2 * block) ~asrc:false;
  let freed, more =
    Txn.with_txn s.txns s.cpu ~reserve:4 (fun txn ->
        Extent_map.remove_records ~budget:0 s.map s.cpu txn f ~file_off:0 ~len:(2 * block))
  in
  (* budget=0: nothing removed, caller must run another transaction. *)
  Alcotest.(check (list (pair int int))) "nothing freed" [] freed;
  Alcotest.(check bool) "more work remains" true more;
  Alcotest.(check (option (pair int int)))
    "record untouched" (Some (base, 2 * block))
    (Extent_map.lookup_run f ~file_off:0)

let test_remove_exact_boundary () =
  let s = mk () in
  let f = mk_file s 2 in
  let base = data_base s in
  add s f ~file_off:0 ~phys:base ~len:block ~asrc:false;
  add s f ~file_off:block ~phys:(base + (4 * block)) ~len:block ~asrc:false;
  let freed, more =
    Txn.with_txn s.txns s.cpu ~reserve:8 (fun txn ->
        Extent_map.remove_records s.map s.cpu txn f ~file_off:0 ~len:(2 * block))
  in
  Alcotest.(check int) "both records freed" 2 (List.length freed);
  Alcotest.(check bool) "scan completed" false more;
  Alcotest.(check (option (pair int int))) "map empty" None
    (Extent_map.lookup_run f ~file_off:0);
  Alcotest.(check int) "slots recycled" 2 (List.length f.free_slots)

(* -- Txn ----------------------------------------------------------- *)

let test_abort_rolls_back_writes () =
  let s = mk () in
  let f = mk_file s 2 in
  let base = data_base s in
  let hdr_addr = Inode.inode_addr s.inodes 2 in
  let before = Device.read_string s.dev s.cpu ~off:hdr_addr ~len:Layout.inode_bytes in
  (match
     Txn.with_txn s.txns s.cpu ~reserve:8 (fun txn ->
         Inode.persist_header s.inodes s.cpu txn f;
         Extent_map.add_record s.map s.cpu txn f ~file_off:0 ~phys:base ~len:block
           ~asrc:false;
         raise Exit)
   with
  | () -> Alcotest.fail "body should have raised"
  | exception Exit -> ());
  (* Every journaled header and slot byte is back to its pre-txn image. *)
  Alcotest.(check string) "inode record rolled back" before
    (Device.read_string s.dev s.cpu ~off:hdr_addr ~len:Layout.inode_bytes)

let test_nested_txn_rejected () =
  let s = mk () in
  Txn.with_txn s.txns s.cpu ~reserve:2 (fun _ ->
      Alcotest.check_raises "nested reserve"
        (Invalid_argument "Txn.with_txn: nested transaction on this CPU's journal")
        (fun () -> Txn.with_txn s.txns s.cpu ~reserve:2 (fun _ -> ())))

let test_reserve_exhaustion () =
  let s = mk () in
  Alcotest.check_raises "over-reserve"
    (Invalid_argument "Undo_journal: reservation exhausted")
    (fun () ->
      Txn.with_txn s.txns s.cpu ~reserve:1 (fun txn ->
          Txn.meta_write s.txns s.cpu txn ~addr:(data_base s) (Bytes.make 8 'a');
          Txn.meta_write s.txns s.cpu txn ~addr:(data_base s + 64) (Bytes.make 8 'b')))

(* -- Inodes built on first lookup after a crash mount --------------- *)

(* A crashed 4-CPU image with every kind of extent state a mount decodes:
   an empty file, an inline-only file, a file with holes whose shrink
   freed an inline slot, a file with an overflow block whose shrink freed
   inline and overflow slots, files under a directory with [xattr_align]
   set, a nested directory, an unlinked file, and a record planted in a
   free inline slot that repeats another record's file offset (the
   higher slot's record is the one a load keeps). *)
let lazy_cfg = Types.config ~cpus:4 ~inodes_per_cpu:64 ()

let lazy_image () =
  let dev = Device.create ~size:(32 * Units.mib) () in
  let fs = Winefs.Fs.format dev lazy_cfg in
  let cpus = Array.init 4 (fun id -> Cpu.make ~id ()) in
  let c0 = cpus.(0) in
  let page = String.make block 'z' in
  (* Every other page: each write is a record of its own. *)
  let write cpu path pages =
    let fd =
      if Winefs.Fs.exists fs cpu path then Winefs.Fs.openf fs cpu path Types.o_rdwr
      else Winefs.Fs.create fs cpu path
    in
    List.iter (fun p -> ignore (Winefs.Fs.pwrite fs cpu fd ~off:(p * block) ~src:page)) pages;
    Winefs.Fs.close fs cpu fd
  in
  let shrink path pages =
    let fd = Winefs.Fs.openf fs c0 path Types.o_rdwr in
    Winefs.Fs.ftruncate fs c0 fd (pages * block);
    Winefs.Fs.close fs c0 fd
  in
  Winefs.Fs.mkdir fs c0 "/d";
  Winefs.Fs.set_xattr_align fs c0 "/d" true;
  Winefs.Fs.mkdir fs c0 "/d/e";
  write cpus.(1) "/empty" [];
  write cpus.(2) "/a" [ 0 ];
  write cpus.(3) "/holes" [ 0; 2; 4; 6 ];
  write cpus.(1) "/long" (List.init 12 (fun i -> 2 * i));
  write cpus.(2) "/d/x" [ 0; 2 ];
  write cpus.(3) "/d/e/y" [ 0 ];
  write cpus.(0) "/gone" [ 0 ];
  Winefs.Fs.unlink fs c0 "/gone";
  shrink "/holes" 5;
  shrink "/long" 13;
  (* Plant a copy of /holes' first record in its free inline slot 6. *)
  let ino = (Winefs.Fs.stat fs c0 "/holes").st_ino in
  let layout = Layout.compute ~size:(Device.size dev) ~cpus:4 ~inodes_per_cpu:64 in
  let slot_off s = Layout.inode_off layout ino + Codec.Inode.extent_slot_off s in
  let first = Device.read_string dev c0 ~off:(slot_off 0) ~len:Codec.Inode.extent_bytes in
  Device.write_string dev c0 ~off:(slot_off 6) ~src:first ~src_off:0 ~len:Codec.Inode.extent_bytes;
  Device.persist dev c0 ~off:(slot_off 6) ~len:Codec.Inode.extent_bytes;
  ignore (Winefs.Fs.mount dev lazy_cfg);
  (dev, layout)

(* The mount's own scan and directory pass over [dev]. *)
let lazy_mount dev layout cpu =
  let txns = Txn.attach dev layout in
  let inodes = Inode.create ~dev ~layout ~txns in
  let dirs, used =
    Inode.scan_tables inodes cpu ~on_refuse:(fun ino why ->
        Alcotest.failf "inode %d refused: %s" ino why)
  in
  let alloc = Alloc.create ~cpus:layout.Layout.cpus ~regions:layout.stripes in
  let map = Extent_map.create ~dev ~layout ~txns ~inodes ~alloc in
  let ns = Namespace.create ~dev ~txns ~inodes ~map in
  List.iter (Namespace.load_dir_index ns cpu) dirs;
  (inodes, used)

let records (f : Inode.file) =
  Int_map.fold f.records ~init:[] ~f:(fun acc off (r : Inode.record) ->
      (off, r.slot, r.phys, r.len, r.asrc) :: acc)
  |> List.rev

let rec drain_slots f acc =
  let s = Inode.take_slot f in
  if s < 0 then List.rev acc else drain_slots f (s :: acc)

let test_lazy_matches_eager () =
  let dev, layout = lazy_image () in
  let cpu = Cpu.make ~id:0 () in
  let inodes, used = lazy_mount dev layout cpu in
  let eager = Repro_oracle.Inode_load_ref.load dev layout cpu in
  let lazy_root = Sched.mutex_id (Inode.find inodes Namespace.root_ino).lock in
  let eager_root = Sched.mutex_id (List.hd eager).lock in
  let eager_used =
    List.fold_left
      (fun acc (o : Inode.file) ->
        let acc = Int_map.fold o.records ~init:acc ~f:(fun acc _ (r : Inode.record) -> (r.phys, r.len) :: acc) in
        List.fold_left (fun acc blk -> (blk, block) :: acc) acc o.overflow)
      [] eager
  in
  (* The eager list was built by prepending: the reverse of scan order. *)
  let used =
    List.rev (List.init used.Alloc.n (fun i -> (used.ext.(2 * i), used.ext.((2 * i) + 1))))
  in
  Alcotest.(check (list (pair int int))) "used extents, in order" eager_used used;
  List.iteri
    (fun rank (o : Inode.file) ->
      let f = Inode.find inodes o.ino in
      let what field = Printf.sprintf "ino %d %s" o.ino field in
      Alcotest.(check bool) (what "is_dir") (Types.is_dir o.kind) (Types.is_dir f.kind);
      Alcotest.(check int) (what "size") o.size f.size;
      Alcotest.(check int) (what "nlink") o.nlink f.nlink;
      Alcotest.(check bool) (what "xattr_align") o.xattr_align f.xattr_align;
      Alcotest.(check int) (what "parent") o.parent f.parent;
      Alcotest.(check string) (what "dname") o.dname f.dname;
      Alcotest.(check (list int)) (what "overflow chain") o.overflow f.overflow;
      Alcotest.(check int) (what "slot_cap") o.slot_cap f.slot_cap;
      Alcotest.(check (list (pair int (pair int (pair int (pair int bool))))))
        (what "records")
        (List.map (fun (a, b, c, d, e) -> (a, (b, (c, (d, e))))) (records o))
        (List.map (fun (a, b, c, d, e) -> (a, (b, (c, (d, e))))) (records f));
      Alcotest.(check int) (what "eager lock id") rank (Sched.mutex_id o.lock - eager_root);
      Alcotest.(check int) (what "lock id") rank (Sched.mutex_id f.lock - lazy_root);
      Alcotest.(check string) (what "lock name")
        (Printf.sprintf "m%d" (lazy_root + rank))
        (Sched.mutex_name f.lock);
      (match (o.dir, f.dir) with
      | Some a, Some b ->
          Alcotest.(check (list (pair string int)))
            (what "entries") (Repro_vfs.Dir_index.entries a) (Repro_vfs.Dir_index.entries b)
      | None, None -> ()
      | _ -> Alcotest.fail (what "dir index"));
      Alcotest.(check (list int)) (what "take_slot sequence") (drain_slots o []) (drain_slots f []))
    eager;
  (* The image does hold what the test is about. *)
  let by_name name = List.find (fun (o : Inode.file) -> o.dname = name) eager in
  Alcotest.(check bool) "an overflow chain" true ((by_name "long").overflow <> []);
  Alcotest.(check bool) "xattr_align set" true (by_name "x").xattr_align;
  Alcotest.(check bool) "a repeated file offset" true
    (Int_map.size (by_name "holes").records = 3 && (Option.get (Int_map.find (by_name "holes").records 0)).slot = 6)

(* Building a pending inode is a cache fill behind a read: two fibers
   looking up the same pending files in opposite orders, with nothing
   ordering them, must not race on the inode table. *)
let test_lazy_lookup_no_race () =
  let files = 8 in
  let races =
    Repro_race.Race.check
      {
        Repro_race.Race.sc_name = "lazy-lookup";
        sc_threads = 2;
        sc_prepare =
          (fun () ->
            let dev = Device.create ~size:(32 * Units.mib) () in
            let fs = Winefs.Fs.format dev lazy_cfg in
            let c0 = Cpu.make ~id:0 () in
            for i = 0 to files - 1 do
              Winefs.Fs.close fs c0 (Winefs.Fs.create fs c0 (Printf.sprintf "/p%d" i))
            done;
            let fs = Winefs.Fs.mount dev lazy_cfg in
            ( dev,
              fun cpu ->
                for i = 0 to files - 1 do
                  let i = if cpu.Cpu.id = 0 then i else files - 1 - i in
                  ignore (Winefs.Fs.stat fs cpu (Printf.sprintf "/p%d" i));
                  Sched.yield ()
                done ));
      }
  in
  Alcotest.(check int) "no races" 0 (List.length races)

(* A directory /d holding [names], on a cleanly unmounted image, with
   the device offset of /d's inode. *)
let dir_image names =
  let dev = Device.create ~size:(32 * Units.mib) () in
  let fs = Winefs.Fs.format dev lazy_cfg in
  let c0 = Cpu.make ~id:0 () in
  Winefs.Fs.mkdir fs c0 "/d";
  List.iter (fun n -> Winefs.Fs.close fs c0 (Winefs.Fs.create fs c0 ("/d/" ^ n))) names;
  let ino = (Winefs.Fs.stat fs c0 "/d").st_ino in
  Winefs.Fs.unmount fs c0;
  let layout = Layout.compute ~size:(Device.size dev) ~cpus:4 ~inodes_per_cpu:64 in
  (dev, c0, Layout.inode_off layout ino)

(* Neither a directory's size nor its extent slots are checked at mount,
   and a header whose CRC is right can still hold a huge size: the index
   is sized by the dentry slots the directory's extents hold, so the
   mount neither dies allocating it nor loses a name. *)
let test_dir_huge_size () =
  let names = [ "a"; "b"; "c" ] in
  let dev, c0, off = dir_image names in
  let hdr = Bytes.create Codec.Inode.header_bytes in
  Device.peek dev ~off ~len:Codec.Inode.header_bytes ~dst:hdr ~dst_off:0;
  let h = Codec.Inode.decode_header hdr in
  Alcotest.(check bool) "a directory header" true (h.valid && h.is_dir);
  let huge = Codec.Inode.encode_header { h with size = 1 lsl 60 } in
  Device.write dev c0 ~off ~src:huge ~src_off:0 ~len:(Bytes.length huge);
  Device.persist dev c0 ~off ~len:(Bytes.length huge);
  let fs = Winefs.Fs.mount dev lazy_cfg in
  Alcotest.(check (list string)) "names kept" names
    (List.sort compare (Winefs.Fs.readdir fs c0 "/d"))

(* A dentry extent whose start is not a dentry boundary is refused, not
   decoded at shifted offsets. *)
let test_dir_misaligned_extent () =
  let dev, c0, off = dir_image [ "a" ] in
  let at = off + Codec.Inode.extent_slot_off 0 + Codec.Inode.extent_phys_off in
  let phys = Device.read_u64 dev c0 ~off:at in
  Device.write_u64 dev c0 ~off:at (Int64.add phys 32L);
  Device.persist dev c0 ~off:at ~len:8;
  match Winefs.Fs.mount dev lazy_cfg with
  | _ -> Alcotest.fail "mounted a misaligned dentry extent"
  | exception Types.Error (Types.EINVAL, _) -> ()

(* A cleanly unmounted image with one one-block file; returns the device,
   a CPU, the layout, the file's extent-slot [phys] address and the phys
   it holds. *)
let clean_file_image () =
  let dev = Device.create ~size:(32 * Units.mib) () in
  let fs = Winefs.Fs.format dev lazy_cfg in
  let c0 = Cpu.make ~id:0 () in
  let fd = Winefs.Fs.create fs c0 "/f" in
  ignore (Winefs.Fs.pwrite fs c0 fd ~off:0 ~src:(String.make block 'x'));
  Winefs.Fs.close fs c0 fd;
  let ino = (Winefs.Fs.stat fs c0 "/f").st_ino in
  Winefs.Fs.unmount fs c0;
  let layout = Layout.compute ~size:(Device.size dev) ~cpus:4 ~inodes_per_cpu:64 in
  let at =
    Layout.inode_off layout ino + Codec.Inode.extent_slot_off 0 + Codec.Inode.extent_phys_off
  in
  (dev, c0, layout, at, Device.read_u64 dev c0 ~off:at)

(* A clean mount seeds the allocator from the serialized free list, but
   still checks every extent slot against the data regions: a file
   extent pointed at the superblock is refused, not read back. *)
let test_clean_mount_checks_extents () =
  let dev, c0, _, at, _ = clean_file_image () in
  Device.write_u64 dev c0 ~off:at 0L;
  Device.persist dev c0 ~off:at ~len:8;
  match Winefs.Fs.mount dev lazy_cfg with
  | _ -> Alcotest.fail "mounted a file extent over the superblock"
  | exception Types.Error (Types.EINVAL, m) ->
      Alcotest.(check string) "error" "corrupt image: extent [0,4096) outside every region" m

let expect_serial_refused what dev =
  match Winefs.Fs.mount dev lazy_cfg with
  | _ -> Alcotest.failf "mounted %s" what
  | exception Types.Error (Types.EINVAL, m) ->
      Alcotest.(check bool) ("names the serialized list: " ^ m) true
        (String.starts_with ~prefix:"corrupt image: serialized free extent" m)

(* A file extent moved into space the serialized free list calls free is
   refused: seeding the allocator from that list would hand the block out
   a second time. *)
let test_clean_mount_extent_in_serial_free () =
  let dev, c0, _, at, phys = clean_file_image () in
  Device.write_u64 dev c0 ~off:at (Int64.add phys (Int64.of_int (64 * block)));
  Device.persist dev c0 ~off:at ~len:8;
  expect_serial_refused "a file extent inside the serialized free list" dev

(* The serial area carries no checksum: an entry edited to cover the
   superblock is refused, not handed to the allocator. *)
let test_clean_mount_serial_entry_at_zero () =
  let dev, c0, layout, _, _ = clean_file_image () in
  let at = layout.serial_off + 16 in
  Device.write_u64 dev c0 ~off:at 0L;
  Device.persist dev c0 ~off:at ~len:8;
  expect_serial_refused "a serialized free extent at offset 0" dev

let suite =
  [
    Alcotest.test_case "lookup + tail merge" `Quick test_lookup_and_merge;
    Alcotest.test_case "no merge across provenance" `Quick test_no_merge_across_provenance;
    Alcotest.test_case "remove splits a record" `Quick test_remove_splits_record;
    Alcotest.test_case "remove with budget 0" `Quick test_remove_budget_zero;
    Alcotest.test_case "remove at exact boundaries" `Quick test_remove_exact_boundary;
    Alcotest.test_case "abort rolls back header+slots" `Quick test_abort_rolls_back_writes;
    Alcotest.test_case "nested transaction rejected" `Quick test_nested_txn_rejected;
    Alcotest.test_case "reservation exhaustion" `Quick test_reserve_exhaustion;
    Alcotest.test_case "no merge across stripes" `Quick test_no_merge_across_stripes;
    Alcotest.test_case "lazy inode = eager load" `Quick test_lazy_matches_eager;
    Alcotest.test_case "lazy inode lookup is race-free" `Quick test_lazy_lookup_no_race;
    Alcotest.test_case "directory with a huge size mounts" `Quick test_dir_huge_size;
    Alcotest.test_case "misaligned dentry extent refused" `Quick test_dir_misaligned_extent;
    Alcotest.test_case "clean mount refuses an extent outside the regions" `Quick
      test_clean_mount_checks_extents;
    Alcotest.test_case "clean mount refuses an extent in the serialized free list" `Quick
      test_clean_mount_extent_in_serial_free;
    Alcotest.test_case "clean mount refuses a serialized extent at offset 0" `Quick
      test_clean_mount_serial_entry_at_zero;
  ]
