(* Unit tests for the core layer modules behind the Fs facade: the
   Extent_map record/slot run map (lookup/split/merge, removal budgets)
   and the Txn reserve/commit/abort protocol. *)

open Repro_util
module Device = Repro_pmem.Device
module Types = Repro_vfs.Types
module Alloc = Repro_alloc.Aligned_alloc
module Layout = Winefs.Layout
module Txn = Winefs.Txn
module Inode = Winefs.Inode
module Extent_map = Winefs.Extent_map

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
  ]
