(* VFS components: paths, block map, dir index, fd table, codecs, NUMA
   policy, layout. *)

open Repro_util
module Path = Repro_vfs.Path
module Types = Repro_vfs.Types
module Block_map = Repro_vfs.Block_map
module Dir_index = Repro_vfs.Dir_index
module Fd_table = Repro_vfs.Fd_table

let test_path () =
  Alcotest.(check (list string)) "split" [ "a"; "b"; "c" ] (Path.split "/a/b/c");
  Alcotest.(check (list string)) "root" [] (Path.split "/");
  Alcotest.(check (list string)) "trailing slash" [ "a" ] (Path.split "/a/");
  Alcotest.(check string) "dirname" "/a/b" (Path.dirname "/a/b/c");
  Alcotest.(check string) "dirname of top" "/" (Path.dirname "/a");
  Alcotest.(check string) "basename" "c" (Path.basename "/a/b/c");
  Alcotest.(check string) "concat root" "/x" (Path.concat "/" "x");
  Alcotest.(check string) "concat nested" "/a/x" (Path.concat "/a" "x");
  Alcotest.(check bool) "relative rejected" true
    (match Path.split "a/b" with
    | _ -> false
    | exception Types.Error (EINVAL, _) -> true);
  Alcotest.(check bool) "dotdot rejected" true
    (match Path.split "/a/../b" with
    | _ -> false
    | exception Types.Error (EINVAL, _) -> true)

let test_block_map () =
  let m = Block_map.create () in
  Block_map.insert m ~file_off:0 ~phys:1000 ~len:4096;
  Block_map.insert m ~file_off:4096 ~phys:16384 ~len:4096 (* logically adjacent, phys not *);
  Alcotest.(check int) "no false merge" 2 (Block_map.extent_count m);
  Block_map.insert m ~file_off:8192 ~phys:20480 ~len:4096 (* adjacent both ways to #2 *);
  Alcotest.(check int) "merged" 2 (Block_map.extent_count m);
  Alcotest.(check (option (pair int int))) "lookup mid-extent" (Some (18432, 6144))
    (Block_map.lookup m ~file_off:6144);
  Alcotest.(check bool) "covered" true (Block_map.covered m ~file_off:0 ~len:12288);
  Alcotest.(check bool) "overlap rejected" true
    (match Block_map.insert m ~file_off:100 ~phys:0 ~len:10 with
    | () -> false
    | exception Invalid_argument _ -> true);
  let freed = Block_map.remove_range m ~file_off:4096 ~len:4096 in
  Alcotest.(check (list (pair int int))) "freed run" [ (16384, 4096) ] freed;
  Alcotest.(check (option (pair int int))) "hole" None (Block_map.lookup m ~file_off:4096);
  Alcotest.(check (option int)) "next_mapped skips hole" (Some 8192)
    (Block_map.next_mapped m ~file_off:4096);
  match Block_map.check_invariants m with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariants: %s" e

let test_block_map_huge_candidate () =
  let m = Block_map.create () in
  let huge = Units.huge_page in
  Block_map.insert m ~file_off:0 ~phys:(4 * huge) ~len:huge;
  Block_map.insert m ~file_off:huge ~phys:(8 * huge + 4096) ~len:huge;
  Alcotest.(check (option int)) "aligned chunk" (Some (4 * huge))
    (Block_map.huge_candidate m ~chunk_off:0);
  Alcotest.(check (option int)) "unaligned chunk" None
    (Block_map.huge_candidate m ~chunk_off:huge)

let prop_block_map_remove_inverse =
  QCheck.Test.make ~name:"block_map insert/remove accounting" ~count:100
    QCheck.(list (pair (int_bound 64) (int_range 1 16)))
    (fun spans ->
      let m = Block_map.create () in
      let inserted = ref 0 in
      List.iteri
        (fun i (slot, blocks) ->
          let file_off = slot * 128 * 4096 in
          let len = blocks * 4096 in
          let phys = (i + 1) * 16 * Units.mib in
          match Block_map.insert m ~file_off ~phys ~len with
          | () -> inserted := !inserted + len
          | exception Invalid_argument _ -> () (* overlapping slot reused *))
        spans;
      (match Block_map.check_invariants m with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "invariants: %s" e);
      Block_map.mapped_bytes m = !inserted)

let test_dir_index_costs () =
  let cpu_fast = Cpu.make ~id:0 () in
  let cpu_slow = Cpu.make ~id:1 () in
  let fast = Dir_index.create Dram_rbtree in
  let slow = Dir_index.create (Pm_linear_scan 130.) in
  for i = 1 to 200 do
    let name = Printf.sprintf "f%d" i in
    Dir_index.add fast cpu_fast ~name ~ino:i ~slot:0;
    Dir_index.add slow cpu_slow ~name ~ino:i ~slot:0
  done;
  let t0 = Cpu.now cpu_fast in
  ignore (Dir_index.lookup fast cpu_fast "f100");
  let fast_cost = Cpu.now cpu_fast - t0 in
  let t0 = Cpu.now cpu_slow in
  ignore (Dir_index.lookup slow cpu_slow "f100");
  let slow_cost = Cpu.now cpu_slow - t0 in
  Alcotest.(check bool) "PMFS-style scan much dearer" true (slow_cost > 20 * fast_cost);
  Alcotest.(check (option (pair int int))) "lookup works" (Some (100, 0))
    (Dir_index.lookup fast cpu_fast "f100")

(* Differential check of the hash-table directory index against the
   ordered-map reference it replaced.  Seeded streams of add, remove,
   lookup, mem, entries and size over a pool of names (re-adds of live
   names, removes of absent ones, re-adds after removes), under both
   cost policies; every result and every simulated ns a call charges
   must agree.  A pool of 300 names takes the index through the powers
   of two up to 128 and past them, where the [Dram_rbtree] level count
   must round as the float formula does.  The index is also created
   presized (as the mount creates a directory's), below, at and above
   the pool, which must change no result and no charge. *)
let prop_dir_index_oracle =
  let module Ref = Repro_oracle.Dir_index_ref in
  QCheck.Test.make ~name:"dir index agrees with ordered-map reference" ~count:200
    QCheck.(quad (oneofl [ 1; 3; 17; 70; 300 ]) bool int (oneofl [ 0; 1; 33; 64; 300; 1000 ]))
    (fun (pool, pm, seed, entries) ->
      let policy = if pm then Dir_index.Pm_linear_scan 130. else Dir_index.Dram_rbtree in
      let rng = Random.State.make [| seed |] in
      let d = Dir_index.create ~entries policy and r = Ref.create policy in
      let cd = Cpu.make ~id:0 () and cr = Cpu.make ~id:1 () in
      let fail what name =
        QCheck.Test.fail_reportf "pool=%d pm=%b seed=%d entries=%d: %s %S disagrees (size %d vs %d)"
          pool pm seed entries what name (Dir_index.size d) (Ref.size r)
      in
      (* Run one call on each side; compare the results and the charges. *)
      let both what name fd fr eq =
        let t0 = Cpu.now cd and u0 = Cpu.now cr in
        let a = fd () and b = fr () in
        if not (eq a b) then fail what name;
        if Cpu.now cd - t0 <> Cpu.now cr - u0 then fail (what ^ " charge") name
      in
      for step = 1 to 4 * pool + 200 do
        let name = Printf.sprintf "n%03d" (Random.State.int rng pool) in
        match Random.State.int rng 10 with
        | 0 | 1 | 2 | 3 ->
            both "add" name
              (fun () -> Dir_index.add d cd ~name ~ino:step ~slot:(step * 64))
              (fun () -> Ref.add r cr ~name ~ino:step ~slot:(step * 64))
              ( = )
        | 4 | 5 ->
            both "remove" name
              (fun () -> Dir_index.remove d cd name)
              (fun () -> Ref.remove r cr name)
              ( = )
        | 6 | 7 ->
            both "lookup" name
              (fun () -> Dir_index.lookup d cd name)
              (fun () -> Ref.lookup r cr name)
              ( = )
        | 8 ->
            both "mem" name (fun () -> Dir_index.mem d cd name) (fun () -> Ref.mem r cr name) ( = )
        | _ ->
            both "entries" name
              (fun () -> (Dir_index.entries d, Dir_index.size d))
              (fun () -> (Ref.entries r, Ref.size r))
              ( = )
      done;
      Dir_index.entries d = Ref.entries r)

let test_fd_table () =
  let t = Fd_table.create () in
  let fd = Fd_table.alloc t ~ino:7 ~flags:Types.o_rdwr in
  Alcotest.(check bool) "fd >= 3" true (fd >= 3);
  Alcotest.(check int) "entry" 7 (Fd_table.get t fd).ino;
  Alcotest.(check bool) "is_open_ino" true (Fd_table.is_open_ino t 7);
  Fd_table.close t fd;
  Alcotest.(check bool) "closed" true
    (match Fd_table.get t fd with _ -> false | exception Types.Error (EBADF, _) -> true);
  Alcotest.(check bool) "double close" true
    (match Fd_table.close t fd with () -> false | exception Types.Error (EBADF, _) -> true)

(* --- WineFS codecs --- *)

let test_codec_roundtrips () =
  let h =
    {
      Winefs.Codec.Inode.valid = true;
      is_dir = false;
      xattr_align = true;
      size = 123456789;
      nlink = 3;
      extent_count = 17;
      overflow = 987654;
    }
  in
  Alcotest.(check bool) "inode header" true
    (Winefs.Codec.Inode.decode_header (Winefs.Codec.Inode.encode_header h) = h);
  let e = Winefs.Codec.Inode.encode_extent ~file_off:42 ~phys:4096 ~len:8192 in
  Alcotest.(check (triple int int int)) "extent" (42, 4096, 8192)
    (Winefs.Codec.Inode.decode_extent e);
  let d = { Winefs.Codec.Dentry.ino = 55; name = "hello.txt" } in
  (match Winefs.Codec.Dentry.decode (Winefs.Codec.Dentry.encode d) with
  | Some d' -> Alcotest.(check bool) "dentry" true (d = d')
  | None -> Alcotest.fail "dentry decode");
  Alcotest.(check bool) "free slot decodes to None" true
    (Winefs.Codec.Dentry.decode Winefs.Codec.Dentry.free_slot = None);
  let sb =
    { Winefs.Codec.Superblock.size = 1 lsl 30; cpus = 8; inodes_per_cpu = 4096;
      mode_strict = true; clean = false }
  in
  Alcotest.(check bool) "superblock" true
    (Winefs.Codec.Superblock.decode (Winefs.Codec.Superblock.encode sb) = Some sb);
  Alcotest.(check bool) "garbage superblock rejected" true
    (Winefs.Codec.Superblock.decode (Bytes.make 64 'x') = None);
  let exts = [ (0, 4096); (8192, 2 * Units.mib) ] in
  (match Winefs.Codec.Serial.encode exts ~capacity_bytes:4096 with
  | Some b -> Alcotest.(check bool) "serial" true (Winefs.Codec.Serial.decode b = Some exts)
  | None -> Alcotest.fail "serial encode");
  Alcotest.(check bool) "serial overflow" true
    (Winefs.Codec.Serial.encode (List.init 1000 (fun i -> (i, 1))) ~capacity_bytes:64 = None)

let test_layout () =
  let l = Winefs.Layout.compute ~size:(256 * Units.mib) ~cpus:4 ~inodes_per_cpu:1024 in
  Alcotest.(check int) "cpus" 4 (Array.length l.stripes);
  Array.iter
    (fun (off, len) ->
      Alcotest.(check bool) "stripe aligned" true (Units.is_aligned off Units.huge_page);
      Alcotest.(check bool) "stripe non-empty" true (len > 0))
    l.stripes;
  let ino = Winefs.Layout.ino_of l ~cpu:2 ~idx:5 in
  Alcotest.(check int) "cpu_of_ino" 2 (Winefs.Layout.cpu_of_ino l ino);
  Alcotest.(check int) "idx_of_ino" 5 (Winefs.Layout.idx_of_ino l ino);
  Alcotest.(check bool) "tiny device rejected" true
    (match Winefs.Layout.compute ~size:(4 * Units.mib) ~cpus:8 ~inodes_per_cpu:8192 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_numa_policy () =
  let free = [| 100; 500 |] in
  let p = Winefs.Numa_policy.create ~nodes:2 ~node_free:(fun n -> free.(n)) in
  Alcotest.(check int) "first write picks emptiest" 1 (Winefs.Numa_policy.home p ~pid:1);
  free.(0) <- 900;
  Alcotest.(check int) "home sticky" 1 (Winefs.Numa_policy.home p ~pid:1);
  Winefs.Numa_policy.fork p ~parent:1 ~child:2;
  Alcotest.(check int) "child inherits" 1 (Winefs.Numa_policy.home p ~pid:2);
  Winefs.Numa_policy.notify_exhausted p ~pid:1;
  Alcotest.(check int) "re-homed on exhaustion" 0 (Winefs.Numa_policy.home p ~pid:1);
  Alcotest.(check (option int)) "unassigned" None (Winefs.Numa_policy.assigned p ~pid:99)

let suite =
  [
    Alcotest.test_case "paths" `Quick test_path;
    Alcotest.test_case "block map" `Quick test_block_map;
    Alcotest.test_case "block map huge candidate" `Quick test_block_map_huge_candidate;
    QCheck_alcotest.to_alcotest prop_block_map_remove_inverse;
    Alcotest.test_case "dir index cost models" `Quick test_dir_index_costs;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xd1e |]) prop_dir_index_oracle;
    Alcotest.test_case "fd table" `Quick test_fd_table;
    Alcotest.test_case "winefs codecs" `Quick test_codec_roundtrips;
    Alcotest.test_case "winefs layout" `Quick test_layout;
    Alcotest.test_case "numa policy" `Quick test_numa_policy;
  ]
