(* Ordered map and extent tree: unit tests plus properties checked
   against the stdlib Map as a model. *)

module OM = Repro_rbtree.Ordmap.Int_map
module ET = Repro_rbtree.Extent_tree
module IM = Map.Make (Int)

let test_basic () =
  let t = OM.create () in
  Alcotest.(check int) "empty" 0 (OM.size t);
  OM.insert t 5 "five";
  OM.insert t 1 "one";
  OM.insert t 9 "nine";
  Alcotest.(check int) "size" 3 (OM.size t);
  Alcotest.(check (option string)) "find" (Some "five") (OM.find t 5);
  Alcotest.(check (option string)) "missing" None (OM.find t 7);
  OM.insert t 5 "FIVE";
  Alcotest.(check int) "replace keeps size" 3 (OM.size t);
  Alcotest.(check (option string)) "replaced" (Some "FIVE") (OM.find t 5);
  OM.remove t 5;
  Alcotest.(check int) "removed" 2 (OM.size t);
  OM.remove t 42 (* absent: no-op *);
  Alcotest.(check int) "remove absent" 2 (OM.size t);
  Alcotest.(check (list (pair int string))) "ordered" [ (1, "one"); (9, "nine") ] (OM.to_list t)

let test_neighbours () =
  let t = OM.create () in
  List.iter (fun k -> OM.insert t k k) [ 10; 20; 30; 40 ];
  Alcotest.(check (option (pair int int))) "geq exact" (Some (20, 20)) (OM.find_first_geq t 20);
  Alcotest.(check (option (pair int int))) "geq between" (Some (30, 30)) (OM.find_first_geq t 21);
  Alcotest.(check (option (pair int int))) "geq past end" None (OM.find_first_geq t 41);
  Alcotest.(check (option (pair int int))) "leq exact" (Some (20, 20)) (OM.find_last_leq t 20);
  Alcotest.(check (option (pair int int))) "leq between" (Some (20, 20)) (OM.find_last_leq t 29);
  Alcotest.(check (option (pair int int))) "leq before start" None (OM.find_last_leq t 9);
  Alcotest.(check (option (pair int int))) "max" (Some (40, 40)) (OM.max_binding t)

(* Model-based property: random insert/remove sequences (replacing bound
   keys and removing absent ones included) agree with Map, bindings and
   count both. *)
let prop_model =
  QCheck.Test.make ~name:"rbtree agrees with Map and keeps invariants" ~count:200
    QCheck.(list (pair (int_bound 500) bool))
    (fun ops ->
      let t = OM.create () in
      let model = ref IM.empty in
      List.iter
        (fun (k, insert) ->
          if insert then begin
            OM.insert t k (k * 2);
            model := IM.add k (k * 2) !model
          end
          else begin
            OM.remove t k;
            model := IM.remove k !model
          end)
        ops;
      if OM.size t <> IM.cardinal !model then
        QCheck.Test.fail_reportf "size %d, model cardinal %d" (OM.size t) (IM.cardinal !model);
      OM.to_list t = IM.bindings !model)

let prop_successor =
  QCheck.Test.make ~name:"find_first_geq matches Map.find_first" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 100) (int_bound 1000)) (int_bound 1000))
    (fun (keys, probe) ->
      let t = OM.create () in
      let model = List.fold_left (fun m k -> IM.add k k m) IM.empty keys in
      List.iter (fun k -> OM.insert t k k) keys;
      OM.find_first_geq t probe = IM.find_first_opt (fun k -> k >= probe) model
      && OM.find_last_leq t probe = IM.find_last_opt (fun k -> k <= probe) model)

(* --- extent tree --- *)

let mib = Repro_util.Units.mib

let test_extent_coalesce () =
  let t = ET.create () in
  ET.insert_free t ~off:0 ~len:4096;
  ET.insert_free t ~off:8192 ~len:4096;
  Alcotest.(check int) "two extents" 2 (ET.extent_count t);
  ET.insert_free t ~off:4096 ~len:4096;
  Alcotest.(check int) "merged into one" 1 (ET.extent_count t);
  Alcotest.(check int) "total" 12288 (ET.total_free t);
  Alcotest.(check (list (pair int int))) "span" [ (0, 12288) ] (ET.to_list t)

let test_extent_double_free () =
  let t = ET.create () in
  ET.insert_free t ~off:0 ~len:8192;
  Alcotest.(check bool) "overlap rejected" true
    (match ET.insert_free t ~off:4096 ~len:4096 with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_extent_alloc_modes () =
  let t = ET.create () in
  ET.insert_free t ~off:0 ~len:(1 * mib);
  ET.insert_free t ~off:(4 * mib) ~len:(8 * mib);
  (* first fit takes the low extent *)
  Alcotest.(check (option int)) "first fit" (Some 0) (ET.alloc_first_fit t ~len:4096);
  (* best fit takes the smallest sufficient *)
  Alcotest.(check (option int)) "best fit small" (Some 4096)
    (ET.alloc_best_fit t ~len:(mib - 4096));
  (* exact carve *)
  Alcotest.(check bool) "exact" true (ET.alloc_exact t ~off:(5 * mib) ~len:mib);
  Alcotest.(check bool) "exact taken" false (ET.alloc_exact t ~off:(5 * mib) ~len:mib);
  (* aligned carve *)
  let huge = Repro_util.Units.huge_page in
  (match ET.alloc_aligned t ~len:huge ~align:huge with
  | Some off -> Alcotest.(check bool) "aligned result" true (off mod huge = 0)
  | None -> Alcotest.fail "aligned alloc failed");
  match ET.check_invariants t with
  | Ok () -> ()
  | Error m -> Alcotest.failf "invariants: %s" m

let test_aligned_census () =
  let t = ET.create () in
  let huge = Repro_util.Units.huge_page in
  ET.insert_free t ~off:0 ~len:(3 * huge) (* 3 aligned regions *);
  ET.insert_free t ~off:(4 * huge) ~len:(huge + 4096) (* 1 aligned region + slack *);
  ET.insert_free t ~off:(7 * huge) ~len:(huge - 4096) (* too small: 0 *);
  Alcotest.(check int) "census" 4 (ET.aligned_region_count t ~align:huge)

let test_alloc_near () =
  let t = ET.create () in
  ET.insert_free t ~off:0 ~len:mib;
  ET.insert_free t ~off:(4 * mib) ~len:mib;
  Alcotest.(check (option int)) "near goal" (Some (4 * mib))
    (ET.alloc_near t ~goal:(3 * mib) ~len:4096);
  Alcotest.(check (option int)) "wraps when nothing after goal"
    (Some 0)
    (ET.alloc_near t ~goal:(100 * mib) ~len:mib)

(* Property: arbitrary alloc/free churn preserves invariants and accounting. *)
let prop_extent_churn =
  QCheck.Test.make ~name:"extent tree churn preserves invariants" ~count:100
    QCheck.(list (pair (int_bound 3) (int_range 1 32)))
    (fun ops ->
      let t = ET.create () in
      ET.insert_free t ~off:0 ~len:(256 * 4096);
      let held = ref [] in
      List.iter
        (fun (op, blocks) ->
          let len = blocks * 4096 in
          match op with
          | 0 -> (
              match ET.alloc_first_fit t ~len with
              | Some off -> held := (off, len) :: !held
              | None -> ())
          | 1 -> (
              match ET.alloc_best_fit t ~len with
              | Some off -> held := (off, len) :: !held
              | None -> ())
          | _ -> (
              match !held with
              | (off, len) :: rest ->
                  ET.insert_free t ~off ~len;
                  held := rest
              | [] -> ()))
        ops;
      let held_bytes = List.fold_left (fun a (_, l) -> a + l) 0 !held in
      (match ET.check_invariants t with
      | Ok () -> ()
      | Error m -> QCheck.Test.fail_reportf "invariant: %s" m);
      ET.total_free t + held_bytes = 256 * 4096)

let suite =
  [
    Alcotest.test_case "rbtree basics" `Quick test_basic;
    Alcotest.test_case "rbtree neighbours" `Quick test_neighbours;
    QCheck_alcotest.to_alcotest prop_model;
    QCheck_alcotest.to_alcotest prop_successor;
    Alcotest.test_case "extent coalescing" `Quick test_extent_coalesce;
    Alcotest.test_case "extent double free" `Quick test_extent_double_free;
    Alcotest.test_case "extent alloc modes" `Quick test_extent_alloc_modes;
    Alcotest.test_case "aligned census" `Quick test_aligned_census;
    Alcotest.test_case "alloc near goal" `Quick test_alloc_near;
    QCheck_alcotest.to_alcotest prop_extent_churn;
  ]
