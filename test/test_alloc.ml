(* Allocators: WineFS's alignment-aware allocator and the baseline pool
   allocator — unit behaviour plus churn properties. *)

open Repro_util
module A = Repro_alloc.Aligned_alloc
module P = Repro_alloc.Pool_alloc

let huge = Units.huge_page
let mib = Units.mib

let mk ?(cpus = 2) ?(stripe = 32 * mib) () =
  A.create ~cpus ~regions:(Array.init cpus (fun i -> (i * stripe, stripe)))

let total_alloc exts = List.fold_left (fun a (e : A.extent) -> a + e.len) 0 exts

let test_hugepage_alloc_aligned () =
  let a = mk () in
  match A.alloc_hugepage a ~cpu:0 with
  | Some off ->
      Alcotest.(check bool) "aligned" true (Units.is_aligned off huge);
      A.free a ~off ~len:huge;
      Alcotest.(check int) "restored" (A.free_bytes a) (2 * 32 * mib)
  | None -> Alcotest.fail "no hugepage on a fresh allocator"

let test_large_request_gets_aligned_chunks () =
  let a = mk () in
  match A.alloc a ~cpu:0 ~len:(5 * mib) ~prefer_aligned:false with
  | Some exts ->
      Alcotest.(check int) "full amount" (5 * mib) (total_alloc exts);
      (* The two whole 2MB chunks are aligned. *)
      let aligned =
        List.filter (fun (e : A.extent) -> e.len = huge && Units.is_aligned e.off huge) exts
      in
      Alcotest.(check int) "two aligned chunks" 2 (List.length aligned)
  | None -> Alcotest.fail "alloc failed"

let test_small_requests_avoid_aligned_pool () =
  let a = mk () in
  let before = A.free_aligned_extents a in
  (* Many small allocations should consume at most one broken extent. *)
  for _ = 1 to 100 do
    match A.alloc a ~cpu:0 ~len:8192 ~prefer_aligned:false with
    | Some _ -> ()
    | None -> Alcotest.fail "small alloc failed"
  done;
  Alcotest.(check bool) "at most one extent broken" true
    (before - A.free_aligned_extents a <= 1)

let test_prefer_aligned_start () =
  let a = mk () in
  match A.alloc a ~cpu:0 ~len:12345 ~prefer_aligned:true with
  | Some (e :: _) -> Alcotest.(check bool) "starts aligned" true (Units.is_aligned e.off huge)
  | _ -> Alcotest.fail "alloc failed"

let test_merge_promotes () =
  let a = mk () in
  (* Break an aligned extent into small pieces, then free them all. *)
  let before = A.aligned_region_count a in
  let pieces =
    List.init 8 (fun _ ->
        match A.alloc a ~cpu:0 ~len:(256 * 1024) ~prefer_aligned:false with
        | Some [ e ] -> e
        | _ -> Alcotest.fail "alloc failed")
  in
  Alcotest.(check bool) "census dropped" true (A.aligned_region_count a < before);
  List.iter (fun (e : A.extent) -> A.free a ~off:e.off ~len:e.len) pieces;
  Alcotest.(check int) "merged back to full census" before (A.aligned_region_count a);
  match A.check_invariants a with Ok () -> () | Error m -> Alcotest.failf "invariants: %s" m

let test_exhaustion_and_enospc () =
  let a = mk ~cpus:1 ~stripe:(4 * mib) () in
  (match A.alloc a ~cpu:0 ~len:(4 * mib) ~prefer_aligned:false with
  | Some exts -> Alcotest.(check int) "all allocated" (4 * mib) (total_alloc exts)
  | None -> Alcotest.fail "should fit exactly");
  Alcotest.(check bool) "ENOSPC" true
    (A.alloc a ~cpu:0 ~len:4096 ~prefer_aligned:false = None)

let test_cross_cpu_stealing () =
  let a = mk ~cpus:2 ~stripe:(4 * mib) () in
  (* Exhaust CPU 0's stripe; further allocations steal from CPU 1. *)
  (match A.alloc a ~cpu:0 ~len:(4 * mib) ~prefer_aligned:false with
  | Some _ -> ()
  | None -> Alcotest.fail "fill failed");
  (match A.alloc a ~cpu:0 ~len:mib ~prefer_aligned:false with
  | Some (e :: _) ->
      Alcotest.(check int) "stolen from cpu 1" 1 (A.cpu_of_offset a e.off)
  | _ -> Alcotest.fail "steal failed");
  match A.check_invariants a with Ok () -> () | Error m -> Alcotest.failf "invariants: %s" m

let test_snapshot_restore () =
  let a = mk () in
  ignore (A.alloc a ~cpu:0 ~len:(3 * mib) ~prefer_aligned:false);
  ignore (A.alloc a ~cpu:1 ~len:12288 ~prefer_aligned:false);
  let snap = A.snapshot a in
  let regions = Array.init 2 (fun i -> (i * 32 * mib, 32 * mib)) in
  let b = A.restore ~cpus:2 ~regions ~free:snap in
  Alcotest.(check int) "free bytes preserved" (A.free_bytes a) (A.free_bytes b);
  Alcotest.(check int) "aligned census preserved" (A.aligned_region_count a)
    (A.aligned_region_count b)

let prop_churn_conserves_space =
  QCheck.Test.make ~name:"aligned allocator conserves space under churn" ~count:60
    QCheck.(list (pair (int_bound 2) (int_range 1 1024)))
    (fun ops ->
      let a = mk () in
      let capacity = A.free_bytes a in
      let held = ref [] in
      List.iter
        (fun (op, kib) ->
          let len = kib * 1024 in
          match op with
          | 0 | 1 -> (
              match A.alloc a ~cpu:op ~len ~prefer_aligned:(kib mod 2 = 0) with
              | Some exts -> held := exts @ !held
              | None -> ())
          | _ -> (
              match !held with
              | e :: rest ->
                  A.free a ~off:e.A.off ~len:e.len;
                  held := rest
              | [] -> ()))
        ops;
      let held_bytes = List.fold_left (fun acc (e : A.extent) -> acc + e.len) 0 !held in
      (match A.check_invariants a with
      | Ok () -> ()
      | Error m -> QCheck.Test.fail_reportf "invariants: %s" m);
      A.free_bytes a + held_bytes = capacity)

(* --- mount-time free-list rebuild --- *)

(* Three 4 KiB-block regions with a gap before the last, so a used
   extent can fall outside every region or cross a boundary. *)
let rebuild_regions = [| (0, 16 * 4096); (16 * 4096, 16 * 4096); (48 * 4096, 8 * 4096) |]

(* The claim-per-extent rebuild: one free tree per region, an exact
   claim for each used extent in list order. *)
let free_lists_reference ~regions ~used =
  let trees =
    Array.map
      (fun (off, len) ->
        let t = Repro_rbtree.Extent_tree.create () in
        Repro_rbtree.Extent_tree.insert_free t ~off ~len;
        t)
      regions
  in
  let claim (off, len) =
    len > 0
    &&
    let rec find i =
      i < Array.length regions
      &&
      let roff, rlen = regions.(i) in
      if off >= roff && off < roff + rlen then
        off + len <= roff + rlen && Repro_rbtree.Extent_tree.alloc_exact trees.(i) ~off ~len
      else find (i + 1)
    in
    find 0
  in
  if List.for_all claim used then
    Some
      (List.concat_map
         (fun t ->
           let acc = ref [] in
           Repro_rbtree.Extent_tree.iter t (fun ~off ~len -> acc := (off, len) :: !acc);
           List.rev !acc)
         (Array.to_list trees))
  else None

(* The mount's packed form of a used-extent list. *)
let pack used =
  {
    A.ext = Array.of_list (List.concat_map (fun (off, len) -> [ off; len ]) used);
    n = List.length used;
  }

let rebuild used = A.free_lists_of_used ~regions:rebuild_regions ~used:(pack used)

let prop_free_lists_match_reference =
  QCheck.Test.make ~name:"free_lists_of_used matches the claim-per-extent rebuild" ~count:500
    QCheck.(list_of_size Gen.(int_range 0 10) (pair (int_bound 59) (int_range 1 5)))
    (fun blocks ->
      let used = List.map (fun (b, n) -> (b * 4096, n * 4096)) blocks in
      match (rebuild used, free_lists_reference ~regions:rebuild_regions ~used) with
      | Ok got, Some want -> got = want
      | Error _, None -> true
      | Ok _, None | Error _, Some _ -> false)

(* The first extent refused in ascending offset order, equal offsets in
   list order, with the reason the rebuild gives; [None] if every extent
   is claimed. *)
let first_refused ~regions used =
  let claimed = Array.map (fun (off, _) -> off) regions in
  let sorted = List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) used in
  let region off =
    let rec find i =
      if i = Array.length regions then None
      else
        let roff, rlen = regions.(i) in
        if off >= roff && off < roff + rlen then Some (i, roff + rlen) else find (i + 1)
    in
    find 0
  in
  let rec go = function
    | [] -> None
    | (off, len) :: rest -> (
        let why =
          if len <= 0 then Some ": non-positive length"
          else
            match region off with
            | None -> Some " outside every region"
            | Some (_, rend) when off + len > rend -> Some " crosses region boundary"
            | Some (i, _) when off < claimed.(i) -> Some " double-used"
            | Some (i, _) ->
                claimed.(i) <- off + len;
                None
        in
        match why with
        | Some why -> Some (Printf.sprintf "extent [%d,%d)%s" off (off + len) why)
        | None -> go rest)
  in
  go sorted

(* The order the rebuild walks without sorting, strictly increasing,
   and three it must sort: non-decreasing (ties in list order), strictly
   decreasing, and decreasing with ties, whose equal offsets keep their
   list order. *)
let orderings =
  let by_off cmp = List.stable_sort (fun (a, _) (b, _) -> cmp a b) in
  let distinct used =
    List.fold_left
      (fun acc (off, len) -> if List.mem_assoc off acc then acc else (off, len) :: acc)
      [] used
  in
  [
    ("non-decreasing", by_off Int.compare);
    ("strictly increasing", fun used -> by_off Int.compare (distinct used));
    ("strictly decreasing", fun used -> by_off (fun a b -> Int.compare b a) (distinct used));
    ("decreasing with ties", by_off (fun a b -> Int.compare b a));
  ]

let prop_free_lists_ordered =
  QCheck.Test.make ~name:"free_lists_of_used on sorted, reversed and tied orders" ~count:500
    QCheck.(
      pair (int_bound 3)
        (list_of_size Gen.(int_range 0 60) (pair (int_bound 59) (int_range 0 5))))
    (fun (which, blocks) ->
      let order = snd (List.nth orderings which) in
      let used = order (List.map (fun (b, n) -> (b * 4096, n * 4096)) blocks) in
      match (rebuild used, free_lists_reference ~regions:rebuild_regions ~used) with
      | Ok got, Some want -> got = want
      | Error got, None -> Some got = first_refused ~regions:rebuild_regions used
      | Ok _, None | Error _, Some _ -> false)

let test_free_lists_errors () =
  let k = 4096 in
  let rebuild used =
    match rebuild used with
    | Ok l -> Ok l
    | Error m -> Error (List.nth (String.split_on_char ')' m) 1)
  in
  Alcotest.(check (result (list (pair int int)) string))
    "complement per region, never coalesced across a boundary"
    (Ok [ (0, 15 * k); (16 * k, 16 * k); (48 * k, 2 * k); (51 * k, 5 * k) ])
    (rebuild [ (50 * k, k); (15 * k, k) ]);
  Alcotest.(check (result (list (pair int int)) string)) "outside every region"
    (Error " outside every region") (rebuild [ (40 * k, k) ]);
  Alcotest.(check (result (list (pair int int)) string)) "crosses a region"
    (Error " crosses region boundary") (rebuild [ (15 * k, 2 * k) ]);
  Alcotest.(check (result (list (pair int int)) string)) "double-used"
    (Error " double-used") (rebuild [ (3 * k, 4 * k); (0, 4 * k) ]);
  Alcotest.(check (result (list (pair int int)) string)) "non-positive length"
    (Error ": non-positive length") (rebuild [ (3 * k, 0) ]);
  (* One case per error class in each order of [orderings]: the bad
     extent sits between good ones, and the error names it. *)
  let good = [ (k, k); (20 * k, 2 * k); (50 * k, k) ] in
  let cases =
    [
      ("non-positive length", (10 * k, 0), ": non-positive length");
      ("outside every region", (40 * k, k), " outside every region");
      ("crosses a region", (30 * k, 3 * k), " crosses region boundary");
      ("double-used", ((20 * k) + 512, k), " double-used");
    ]
  in
  List.iter
    (fun (order_name, order) ->
      List.iter
        (fun (what, ((off, len) as bad), why) ->
          Alcotest.(check (result (list (pair int int)) string))
            (Printf.sprintf "%s, %s" what order_name)
            (Error (Printf.sprintf "extent [%d,%d)%s" off (off + len) why))
            (A.free_lists_of_used ~regions:rebuild_regions ~used:(pack (order (bad :: good)))))
        cases)
    (("unsorted", fun l -> List.rev (List.tl l) @ [ List.hd l ]) :: orderings)

(* --- baseline pool allocator --- *)

let pool_cfg per_cpu policy =
  { P.per_cpu; policy; align_exact_2m = false; normalize_pow2 = false }

let test_pool_basic () =
  let p = P.create (pool_cfg false P.First_fit) ~cpus:1 ~regions:[| (0, 16 * mib) |] in
  (match P.alloc p ~cpu:0 ~len:mib with
  | Some [ e ] ->
      Alcotest.(check int) "first fit at 0" 0 e.P.off;
      P.free p ~off:e.off ~len:e.len
  | _ -> Alcotest.fail "alloc failed");
  Alcotest.(check int) "restored" (16 * mib) (P.free_bytes p)

let test_pool_goal () =
  let p = P.create (pool_cfg false P.First_fit) ~cpus:1 ~regions:[| (0, 16 * mib) |] in
  match P.alloc ~goal:(8 * mib) p ~cpu:0 ~len:4096 with
  | Some [ e ] -> Alcotest.(check int) "honours goal" (8 * mib) e.P.off
  | _ -> Alcotest.fail "goal alloc failed"

let test_pool_fragmented_multi_extent () =
  let p = P.create (pool_cfg false P.First_fit) ~cpus:1 ~regions:[| (0, 4 * mib) |] in
  (* Fragment: allocate all, free every other 64K. *)
  (match P.alloc p ~cpu:0 ~len:(4 * mib) with Some _ -> () | None -> Alcotest.fail "fill");
  let freed = ref 0 in
  let k64 = 64 * 1024 in
  let i = ref 0 in
  while !i * k64 < 4 * mib do
    if !i mod 2 = 0 then begin
      P.free p ~off:(!i * k64) ~len:k64;
      incr freed
    end;
    incr i
  done;
  (* A 1MB request must still succeed from fragments. *)
  match P.alloc p ~cpu:0 ~len:mib with
  | Some exts ->
      Alcotest.(check int) "gathered full amount" mib
        (List.fold_left (fun a (e : P.extent) -> a + e.len) 0 exts);
      Alcotest.(check bool) "multiple fragments" true (List.length exts > 1)
  | None -> Alcotest.fail "fragmented alloc failed"

let raises_invalid f =
  match f () with () -> false | exception Invalid_argument _ -> true

let test_double_free_detected () =
  (* The hole tree always rejected overlap with free holes, but a range
     overlapping a promoted 2MB base parked in the aligned FIFO was
     invisible to it: the same space could silently be handed out twice. *)
  let a = mk () in
  Alcotest.(check bool) "free of a pooled aligned extent raises" true
    (raises_invalid (fun () -> A.free a ~off:0 ~len:huge));
  Alcotest.(check bool) "partial overlap with a pooled extent raises" true
    (raises_invalid (fun () -> A.free a ~off:4096 ~len:4096));
  (* Legitimate churn still works, and a later double free of the same
     range is caught whether it merged into a hole or got re-promoted. *)
  (match A.alloc a ~cpu:0 ~len:4096 ~prefer_aligned:false with
  | Some [ e ] ->
      A.free a ~off:e.off ~len:e.len;
      Alcotest.(check bool) "hole double free raises" true
        (raises_invalid (fun () -> A.free a ~off:e.off ~len:e.len))
  | _ -> Alcotest.fail "small alloc failed");
  Alcotest.(check bool) "invariants hold after rejections" true
    (A.check_invariants a = Ok ())

let suite =
  [
    Alcotest.test_case "hugepage alloc aligned" `Quick test_hugepage_alloc_aligned;
    Alcotest.test_case "double free detected" `Quick test_double_free_detected;
    Alcotest.test_case "large request aligned chunks" `Quick test_large_request_gets_aligned_chunks;
    Alcotest.test_case "small requests spare aligned pool" `Quick test_small_requests_avoid_aligned_pool;
    Alcotest.test_case "prefer_aligned (xattr) start" `Quick test_prefer_aligned_start;
    Alcotest.test_case "free merges and promotes" `Quick test_merge_promotes;
    Alcotest.test_case "exhaustion" `Quick test_exhaustion_and_enospc;
    Alcotest.test_case "cross-CPU stealing" `Quick test_cross_cpu_stealing;
    Alcotest.test_case "snapshot/restore" `Quick test_snapshot_restore;
    QCheck_alcotest.to_alcotest prop_churn_conserves_space;
    QCheck_alcotest.to_alcotest prop_free_lists_match_reference;
    Alcotest.test_case "free-list rebuild errors" `Quick test_free_lists_errors;
    QCheck_alcotest.to_alcotest prop_free_lists_ordered;
    Alcotest.test_case "pool allocator basics" `Quick test_pool_basic;
    Alcotest.test_case "pool goal allocation" `Quick test_pool_goal;
    Alcotest.test_case "pool fragmented multi-extent" `Quick test_pool_fragmented_multi_extent;
  ]
