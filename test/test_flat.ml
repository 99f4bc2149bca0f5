(* Flat substrate: differential tests of the open-addressing table and the
   sorted-run extent index against their reference structures, plus the
   O(flushed) fence-sweep scaling contract.

   Every stream is seeded, so a failure replays exactly. *)

open Repro_util
module Device = Repro_pmem.Device
module Extent_tree = Repro_rbtree.Extent_tree
module Extent_tree_ref = Repro_oracle.Extent_tree_ref

let cpu () = Cpu.make ~id:0 ()

(* ------------------------------------------------------------------ *)
(* Flat_table vs Hashtbl                                               *)

let check_table_invariants t =
  match Flat_table.check_invariants t with
  | Ok () -> ()
  | Error m -> Alcotest.failf "Flat_table invariant broken: %s" m

let test_table_differential () =
  let rng = Random.State.make [| 0x5eed |] in
  let flat = Flat_table.create ~capacity:8 ~dummy:(-1) () in
  let refr : (int, int) Hashtbl.t = Hashtbl.create 8 in
  for step = 1 to 20_000 do
    let k = Random.State.int rng 512 in
    (match Random.State.int rng 10 with
    | 0 | 1 | 2 | 3 ->
        let v = Random.State.int rng 1_000_000 in
        Flat_table.set flat k v;
        Hashtbl.replace refr k v
    | 4 | 5 ->
        Flat_table.remove flat k;
        Hashtbl.remove refr k
    | 6 ->
        Alcotest.(check bool)
          (Printf.sprintf "step %d: mem %d" step k)
          (Hashtbl.mem refr k) (Flat_table.mem flat k)
    | 7 ->
        Alcotest.(check (option int))
          (Printf.sprintf "step %d: find %d" step k)
          (Hashtbl.find_opt refr k) (Flat_table.find flat k)
    | 8 ->
        Alcotest.(check int)
          (Printf.sprintf "step %d: get %d" step k)
          (Option.value (Hashtbl.find_opt refr k) ~default:(-7))
          (Flat_table.get flat k ~default:(-7))
    | _ ->
        Alcotest.(check int)
          (Printf.sprintf "step %d: length" step)
          (Hashtbl.length refr) (Flat_table.length flat));
    if step mod 2_000 = 0 then begin
      check_table_invariants flat;
      let keys_ref = Hashtbl.fold (fun k _ acc -> k :: acc) refr [] |> List.sort Int.compare in
      Alcotest.(check (list int))
        (Printf.sprintf "step %d: key sets" step)
        keys_ref (Flat_table.keys_sorted flat)
    end
  done

let test_table_tombstone_chains () =
  (* Fill a probe chain, delete the middle, and confirm lookups walk past
     the tombstone; then reinsert into the tombstone slot. *)
  let t = Flat_table.create ~capacity:8 ~dummy:"" () in
  let keys = List.init 6 (fun i -> i * 97) in
  List.iter (fun k -> Flat_table.set t k (string_of_int k)) keys;
  List.iter
    (fun k -> Alcotest.(check (option string)) "present" (Some (string_of_int k)) (Flat_table.find t k))
    keys;
  Flat_table.remove t 97;
  Flat_table.remove t 291;
  check_table_invariants t;
  List.iter
    (fun k ->
      let expect = if k = 97 || k = 291 then None else Some (string_of_int k) in
      Alcotest.(check (option string)) "after deletes" expect (Flat_table.find t k))
    keys;
  Flat_table.set t 97 "back";
  Alcotest.(check (option string)) "reinserted over tombstone" (Some "back") (Flat_table.find t 97);
  check_table_invariants t

let test_table_growth_and_clear () =
  let t = Flat_table.create ~capacity:8 ~dummy:0 () in
  for k = 0 to 999 do
    Flat_table.set t k (k * 3)
  done;
  Alcotest.(check int) "all live" 1000 (Flat_table.length t);
  Alcotest.(check bool) "load factor held" true (Flat_table.length t * 4 <= Flat_table.capacity t * 3);
  check_table_invariants t;
  for k = 0 to 999 do
    Alcotest.(check int) "value survives growth" (k * 3) (Flat_table.get t k ~default:(-1))
  done;
  (* Heavy delete/reinsert churn at fixed size: tombstone rehash must keep
     the table bounded rather than growing forever. *)
  for round = 0 to 99 do
    for k = 0 to 999 do
      Flat_table.remove t k;
      Flat_table.set t (k + (round land 1)) k
    done
  done;
  check_table_invariants t;
  Alcotest.(check bool) "capacity bounded under churn" true (Flat_table.capacity t <= 4096);
  Flat_table.clear t;
  Alcotest.(check int) "cleared" 0 (Flat_table.length t);
  Alcotest.(check (list int)) "no keys" [] (Flat_table.keys_sorted t);
  check_table_invariants t

let test_table_copy_independent () =
  let t = Flat_table.create ~capacity:8 ~dummy:0 () in
  Flat_table.set t 1 10;
  Flat_table.set t 2 20;
  let c = Flat_table.copy t in
  Flat_table.remove t 1;
  Flat_table.set t 2 99;
  Alcotest.(check (option int)) "copy keeps removed key" (Some 10) (Flat_table.find c 1);
  Alcotest.(check (option int)) "copy keeps old value" (Some 20) (Flat_table.find c 2);
  check_table_invariants c

let test_table_rejects_negative () =
  let t = Flat_table.create ~dummy:0 () in
  Alcotest.(check bool) "negative key rejected" true
    (match Flat_table.set t (-3) 1 with
    | () -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Flat_vec                                                            *)

let test_vec_basics () =
  let v = Flat_vec.create ~capacity:2 () in
  for i = 0 to 99 do
    Flat_vec.push v (99 - i)
  done;
  Alcotest.(check int) "length" 100 (Flat_vec.length v);
  Alcotest.(check int) "get" 99 (Flat_vec.get v 0);
  Flat_vec.sort v;
  Alcotest.(check (list int)) "sorted" (List.init 100 Fun.id) (Flat_vec.to_list v);
  Flat_vec.clear v;
  Alcotest.(check int) "cleared" 0 (Flat_vec.length v);
  Flat_vec.push v 7;
  Alcotest.(check (list int)) "reusable after clear" [ 7 ] (Flat_vec.to_list v)

(* ------------------------------------------------------------------ *)
(* Extent_tree vs Extent_tree_ref                                      *)

let check_tree_invariants tr =
  match Extent_tree.check_invariants tr with
  | Ok () -> ()
  | Error m -> Alcotest.failf "Extent_tree invariant broken: %s" m

let same_state step flat refr =
  Alcotest.(check (list (pair int int)))
    (Printf.sprintf "step %d: extents" step)
    (Extent_tree_ref.to_list refr) (Extent_tree.to_list flat);
  Alcotest.(check int)
    (Printf.sprintf "step %d: total_free" step)
    (Extent_tree_ref.total_free refr) (Extent_tree.total_free flat);
  Alcotest.(check int)
    (Printf.sprintf "step %d: largest" step)
    (Extent_tree_ref.largest refr) (Extent_tree.largest flat)

let test_extent_differential () =
  let rng = Random.State.make [| 0xa110c |] in
  let blk = 4096 in
  let huge = Units.huge_page in
  let space = 64 * Units.mib in
  let flat = Extent_tree.create () in
  let refr = Extent_tree_ref.create () in
  Extent_tree.insert_free flat ~off:0 ~len:space;
  Extent_tree_ref.insert_free refr ~off:0 ~len:space;
  let both_free ~off ~len =
    (* Double frees must be rejected identically. *)
    let a = match Extent_tree.insert_free flat ~off ~len with
      | () -> true
      | exception Invalid_argument _ -> false
    in
    let b = match Extent_tree_ref.insert_free refr ~off ~len with
      | () -> true
      | exception Invalid_argument _ -> false
    in
    Alcotest.(check bool) "free accepted identically" b a
  in
  let opt_eq step what a b =
    Alcotest.(check (option int)) (Printf.sprintf "step %d: %s" step what) b a
  in
  for step = 1 to 4_000 do
    let len = blk * (1 + Random.State.int rng 256) in
    let goal = blk * Random.State.int rng (space / blk) in
    (match Random.State.int rng 12 with
    | 0 | 1 ->
        opt_eq step "first_fit"
          (Extent_tree.alloc_first_fit flat ~len)
          (Extent_tree_ref.alloc_first_fit refr ~len)
    | 2 | 3 ->
        opt_eq step "best_fit"
          (Extent_tree.alloc_best_fit flat ~len)
          (Extent_tree_ref.alloc_best_fit refr ~len)
    | 4 | 5 ->
        opt_eq step "near"
          (Extent_tree.alloc_near flat ~goal ~len)
          (Extent_tree_ref.alloc_near refr ~goal ~len)
    | 6 ->
        opt_eq step "aligned"
          (Extent_tree.alloc_aligned flat ~len ~align:huge)
          (Extent_tree_ref.alloc_aligned refr ~len ~align:huge)
    | 7 ->
        let window = huge * (1 + Random.State.int rng 8) in
        opt_eq step "aligned_near"
          (Extent_tree.alloc_aligned_near flat ~goal ~window ~len ~align:huge)
          (Extent_tree_ref.alloc_aligned_near refr ~goal ~window ~len ~align:huge)
    | 8 ->
        Alcotest.(check bool)
          (Printf.sprintf "step %d: exact" step)
          (Extent_tree_ref.alloc_exact refr ~off:goal ~len)
          (Extent_tree.alloc_exact flat ~off:goal ~len)
    | 9 | 10 -> both_free ~off:goal ~len
    | _ ->
        Alcotest.(check (option (pair int int)))
          (Printf.sprintf "step %d: extent_at" step)
          (Extent_tree_ref.extent_at refr ~off:goal)
          (Extent_tree.extent_at flat ~off:goal);
        let overlapping = ref [] in
        Extent_tree.iter_range flat ~off:goal ~len (fun ~off ~len ->
            overlapping := (off, len) :: !overlapping);
        Alcotest.(check (list (pair int int)))
          (Printf.sprintf "step %d: iter_range" step)
          (List.filter
             (fun (o, l) -> o < goal + len && o + l > goal)
             (Extent_tree_ref.to_list refr))
          (List.rev !overlapping);
        Alcotest.(check int)
          (Printf.sprintf "step %d: aligned census" step)
          (Extent_tree_ref.aligned_region_count refr ~align:huge)
          (Extent_tree.aligned_region_count flat ~align:huge));
    if step mod 500 = 0 then begin
      check_tree_invariants flat;
      same_state step flat refr
    end
  done;
  same_state 4_000 flat refr

let test_extent_coalesce_exact () =
  (* The classic shapes: merge left, merge right, merge both, carve middle. *)
  let t = Extent_tree.create () in
  Extent_tree.insert_free t ~off:0 ~len:4096;
  Extent_tree.insert_free t ~off:8192 ~len:4096;
  Alcotest.(check int) "two extents" 2 (Extent_tree.extent_count t);
  Extent_tree.insert_free t ~off:4096 ~len:4096;
  Alcotest.(check (list (pair int int))) "merged both" [ (0, 12288) ] (Extent_tree.to_list t);
  Alcotest.(check bool) "carve middle" true (Extent_tree.alloc_exact t ~off:4096 ~len:4096);
  Alcotest.(check (list (pair int int))) "split back"
    [ (0, 4096); (8192, 4096) ]
    (Extent_tree.to_list t);
  check_tree_invariants t

(* ------------------------------------------------------------------ *)
(* Fence sweep scales with flushed lines, not pending lines            *)

let test_fence_sweep_scaling () =
  let d = Device.create ~cost:Device.Cost.free ~size:(1 * Units.mib) () in
  let c = cpu () in
  Device.set_tracking d true;
  let cl = Units.cacheline in
  (* Dirty many lines, flush few: the sweep must only visit the flushed. *)
  let pending = 1_000 and flushed = 10 in
  for i = 0 to pending - 1 do
    Device.write_string d c ~off:(i * cl) ~src:"x" ~src_off:0 ~len:1
  done;
  Device.flush d c ~off:0 ~len:(flushed * cl);
  let v0 = Device.fence_sweep_visits d in
  Device.fence d c;
  let visited = Device.fence_sweep_visits d - v0 in
  Alcotest.(check int) "sweep visits = flushed lines" flushed visited;
  Alcotest.(check int) "unflushed still pending" (pending - flushed)
    (List.length (Device.pending_lines d));
  (* A fence with nothing newly flushed sweeps nothing. *)
  let v1 = Device.fence_sweep_visits d in
  Device.fence d c;
  Alcotest.(check int) "empty fence sweeps nothing" 0 (Device.fence_sweep_visits d - v1);
  (* NT stores count as flushed-at-fence, and re-dirtying a flushed line
     un-flushes it: the stale sweep entry must not commit it. *)
  Device.write_string_nt d c ~off:(2_000 * cl) ~src:"nt" ~src_off:0 ~len:2;
  Device.flush d c ~off:(100 * cl) ~len:cl;
  (* dirty again: must survive fence *)
  Device.write_string d c ~off:(100 * cl) ~src:"y" ~src_off:0 ~len:1;
  let v2 = Device.fence_sweep_visits d in
  Device.fence d c;
  Alcotest.(check int) "nt + stale entry visited" 2 (Device.fence_sweep_visits d - v2);
  Alcotest.(check bool) "re-dirtied line still pending" true
    (List.mem 100 (Device.pending_lines d));
  Alcotest.(check bool) "nt line committed" true
    (not (List.mem 2_000 (Device.pending_lines d)))

let suite =
  [
    Alcotest.test_case "table: differential vs Hashtbl" `Quick test_table_differential;
    Alcotest.test_case "table: tombstone chains" `Quick test_table_tombstone_chains;
    Alcotest.test_case "table: growth, churn, clear" `Quick test_table_growth_and_clear;
    Alcotest.test_case "table: copy independent" `Quick test_table_copy_independent;
    Alcotest.test_case "table: negative key rejected" `Quick test_table_rejects_negative;
    Alcotest.test_case "vec: basics" `Quick test_vec_basics;
    Alcotest.test_case "extents: differential vs rbtree" `Quick test_extent_differential;
    Alcotest.test_case "extents: coalesce and exact" `Quick test_extent_coalesce_exact;
    Alcotest.test_case "fence sweep scales with flushed" `Quick test_fence_sweep_scaling;
  ]
