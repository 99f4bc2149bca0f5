(* srccheck static analyzer: per-rule fixtures asserting exact
   diagnostics, the allowlist machinery, the clean-tree regression over
   the real sources, and the planted temporally-separated ABBA deadlock
   that dynamic race exploration misses but the static lock-order graph
   (and the runtime lock-order recorder) catch. *)

open Repro_util
module Device = Repro_pmem.Device
module Sched = Repro_sched.Sched
module Race = Repro_race.Race
module Lint = Repro_lint.Lint
module Source = Repro_lint.Source
module Diag = Repro_lint.Diag
module Probe = Repro_lint.Probe
module Flow_scenarios = Repro_lint.Flow_scenarios

let diag_triple d = (d.Diag.line, d.Diag.col, d.Diag.rule)

let diags_of_rule rule ds = List.filter (fun d -> d.Diag.rule = rule) ds

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* persist-site *)

let test_persist_site_flags_raw_store () =
  let src = "let f dev cpu b =\n  Device.write_nt dev cpu ~off:0 ~src:b ~src_off:0 ~len:8\n" in
  match diags_of_rule "persist-site" (Lint.analyze_string ~path:"lib/core/fixture.ml" src) with
  | [ d ] ->
      Alcotest.(check (triple int int string))
        "exact position" (2, 2, "persist-site") (diag_triple d);
      Alcotest.(check bool) "names the entry point" true
        (contains_sub ~sub:"Device.write_nt" d.Diag.msg)
  | ds -> Alcotest.failf "expected exactly one persist-site diag, got %d" (List.length ds)

let test_persist_site_covered_by_with_site () =
  let src =
    "let site = Site.v \"core\" \"fixture\"\n\
     let f dev cpu b =\n\
    \  Device.with_site dev site (fun () ->\n\
    \      Device.write_nt dev cpu ~off:0 ~src:b ~src_off:0 ~len:8;\n\
    \      Device.fence dev cpu)\n"
  in
  Alcotest.(check int)
    "covered stores are silent" 0
    (List.length (diags_of_rule "persist-site" (Lint.analyze_string ~path:"lib/core/fixture.ml" src)))

let test_persist_site_pmem_exempt () =
  let src = "let f dev cpu b =\n  Device.write_nt dev cpu ~off:0 ~src:b ~src_off:0 ~len:8\n" in
  Alcotest.(check int)
    "lib/pmem itself is out of scope" 0
    (List.length (diags_of_rule "persist-site" (Lint.analyze_string ~path:"lib/pmem/fixture.ml" src)))

(* ------------------------------------------------------------------ *)
(* ownership *)

let test_ownership_flags_stray_journal_use () =
  let src =
    "module J = Repro_journal.Undo_journal\n\nlet f j cpu = J.commit j cpu (J.begin_txn j cpu ~reserve:1)\n"
  in
  let ds = diags_of_rule "ownership" (Lint.analyze_string ~path:"lib/workloads/fixture.ml" src) in
  Alcotest.(check bool) "alias-resolved references are flagged" true (List.length ds >= 1);
  List.iter
    (fun d ->
      Alcotest.(check bool) "names the target" true (contains_sub ~sub:"Undo_journal" d.Diag.msg))
    ds

let test_ownership_allows_owning_layer () =
  let src = "let f j cpu txn = Repro_journal.Undo_journal.commit j cpu txn\n" in
  Alcotest.(check int)
    "txn layer may use the journal" 0
    (List.length (diags_of_rule "ownership" (Lint.analyze_string ~path:"lib/core/txn.ml" src)))

(* File systems count through the stats registry: a [Counters] set under
   lib/core is flagged, the Vmem readers' own use is not. *)
let test_ownership_flags_fs_counters () =
  let src = "open Repro_util\n\nlet f c = Counters.incr c \"fs.create\"\n" in
  (match diags_of_rule "ownership" (Lint.analyze_string ~path:"lib/core/fixture.ml" src) with
  | [ d ] ->
      Alcotest.(check (triple int int string)) "exact position" (3, 10, "ownership") (diag_triple d);
      Alcotest.(check bool) "names the target" true (contains_sub ~sub:"Counters" d.Diag.msg)
  | ds -> Alcotest.failf "expected exactly one ownership diag, got %d" (List.length ds));
  Alcotest.(check int)
    "a mapping space's reader may use it" 0
    (List.length (diags_of_rule "ownership" (Lint.analyze_string ~path:"lib/workloads/fixture.ml" src)))

(* ------------------------------------------------------------------ *)
(* error-discipline *)

let test_error_discipline_catch_all () =
  let src = "let f g = try g () with _ -> ()\n" in
  match diags_of_rule "error-discipline" (Lint.analyze_string ~path:"lib/core/fixture.ml" src) with
  | [ d ] ->
      Alcotest.(check (triple int int string))
        "anchored at the wildcard pattern" (1, 24, "error-discipline") (diag_triple d);
      Alcotest.(check bool) "says catch-all" true (contains_sub ~sub:"catch-all" d.Diag.msg)
  | ds -> Alcotest.failf "expected exactly one diag, got %d" (List.length ds)

let test_error_discipline_undiscriminated_errno () =
  let src = "let f g = try g () with Types.Error _ -> ()\n" in
  match diags_of_rule "error-discipline" (Lint.analyze_string ~path:"lib/core/fixture.ml" src) with
  | [ d ] ->
      Alcotest.(check bool) "flags the blanket errno" true
        (contains_sub ~sub:"discriminate" d.Diag.msg)
  | ds -> Alcotest.failf "expected exactly one diag, got %d" (List.length ds)

let test_error_discipline_narrow_is_clean () =
  let src = "let f g = try g () with Types.Error ((ENOENT | ENOTDIR), _) -> ()\n" in
  Alcotest.(check int)
    "discriminated handler passes" 0
    (List.length
       (diags_of_rule "error-discipline" (Lint.analyze_string ~path:"lib/core/fixture.ml" src)))

let test_error_discipline_reraise_is_clean () =
  let src = "let f g = try g () with e -> cleanup (); raise e\n" in
  Alcotest.(check int)
    "re-raising handlers pass" 0
    (List.length
       (diags_of_rule "error-discipline" (Lint.analyze_string ~path:"lib/core/fixture.ml" src)))

let test_error_discipline_ignored_invariants () =
  let src = "let f t = ignore (check_invariants t)\n" in
  match diags_of_rule "error-discipline" (Lint.analyze_string ~path:"lib/core/fixture.ml" src) with
  | [ d ] ->
      Alcotest.(check bool) "flags dropped invariant result" true
        (contains_sub ~sub:"check_invariants" d.Diag.msg)
  | ds -> Alcotest.failf "expected exactly one diag, got %d" (List.length ds)

(* ------------------------------------------------------------------ *)
(* lock-order *)

let abba_src =
  "let h b = Sched.with_lock b (fun () -> ())\n\
   let f a b = Sched.with_lock a (fun () -> h b)\n\
   let g a b = Sched.with_lock b (fun () -> Sched.with_lock a (fun () -> ()))\n"

let test_lock_order_cycle_static () =
  (* f acquires b through the helper h while holding a (interprocedural
     summary); g nests the opposite way: an ABBA cycle even though no
     single function shows both orders. *)
  match diags_of_rule "lock-order" (Lint.analyze_string ~path:"lib/core/abba_fixture.ml" abba_src) with
  | [ d ] ->
      Alcotest.(check bool) "reports a cycle" true (contains_sub ~sub:"cycle" d.Diag.msg);
      Alcotest.(check bool) "names both lock classes" true
        (contains_sub ~sub:"abba_fixture:a" d.Diag.msg
        && contains_sub ~sub:"abba_fixture:b" d.Diag.msg)
  | ds -> Alcotest.failf "expected exactly one lock-order diag, got %d" (List.length ds)

let test_lock_order_nested_one_way_is_clean () =
  let src =
    "let f a b = Sched.with_lock a (fun () -> Sched.with_lock b (fun () -> ()))\n\
     let g a b = Sched.with_lock a (fun () -> Sched.with_lock b (fun () -> ()))\n"
  in
  Alcotest.(check int)
    "consistent order passes" 0
    (List.length (diags_of_rule "lock-order" (Lint.analyze_string ~path:"lib/core/fixture.ml" src)))

let test_lock_order_self_nest () =
  let src = "let f a = Sched.with_lock a (fun () -> Sched.with_lock a (fun () -> ()))\n" in
  match diags_of_rule "lock-order" (Lint.analyze_string ~path:"lib/core/fixture.ml" src) with
  | [ d ] -> Alcotest.(check bool) "self-deadlock" true (contains_sub ~sub:"already held" d.Diag.msg)
  | ds -> Alcotest.failf "expected exactly one lock-order diag, got %d" (List.length ds)

(* ------------------------------------------------------------------ *)
(* persist-order (flowcheck dataflow) *)

let flow_fixture src = diags_of_rule "persist-order" (Lint.analyze_string ~path:"lib/core/fixture.ml" src)

let test_persist_order_dirty_at_commit () =
  let src =
    "let f dev cpu src =\n\
    \  Device.with_site dev site (fun () ->\n\
    \      Device.write dev cpu ~off:0 ~src ~src_off:0 ~len:64);\n\
    \  Device.annotate dev (Txn_commit { txn = 1 })\n"
  in
  match flow_fixture src with
  | [ d ] ->
      Alcotest.(check bool) "reaches the commit anchor" true (contains_sub ~sub:"may reach" d.Diag.msg);
      Alcotest.(check bool) "state is still dirty" true (contains_sub ~sub:"still dirty" d.Diag.msg)
  | ds -> Alcotest.failf "expected exactly one persist-order diag, got %d" (List.length ds)

let test_persist_order_flush_without_fence () =
  let src =
    "let f dev cpu src =\n\
    \  Device.with_site dev site (fun () ->\n\
    \      Device.write dev cpu ~off:0 ~src ~src_off:0 ~len:64);\n\
    \  Device.flush dev cpu ~off:0 ~len:64;\n\
    \  Device.annotate dev (Txn_commit { txn = 1 })\n"
  in
  match flow_fixture src with
  | [ d ] -> Alcotest.(check bool) "flushed but unfenced" true (contains_sub ~sub:"fence" d.Diag.msg)
  | ds -> Alcotest.failf "expected exactly one persist-order diag, got %d" (List.length ds)

let test_persist_order_branch_only_bug () =
  (* The fence is skipped on one branch only: every-path analysis must
     flag what a run down the healthy branch cannot. *)
  let src =
    "let f dev cpu src degraded =\n\
    \  Device.with_site dev site (fun () ->\n\
    \      Device.write dev cpu ~off:0 ~src ~src_off:0 ~len:64);\n\
    \  Device.flush dev cpu ~off:0 ~len:64;\n\
    \  if degraded then () else Device.fence dev cpu;\n\
    \  Device.annotate dev (Txn_commit { txn = 1 })\n"
  in
  Alcotest.(check bool) "branch-only elision flagged" true (flow_fixture src <> [])

let test_persist_order_try_handler_escape () =
  let src =
    "let f dev cpu src risky =\n\
    \  Device.with_site dev site (fun () ->\n\
    \      Device.write dev cpu ~off:0 ~src ~src_off:0 ~len:64);\n\
    \  Device.flush dev cpu ~off:0 ~len:64;\n\
    \  try risky (); Device.fence dev cpu with _ -> ()\n"
  in
  Alcotest.(check bool) "fence stranded after a raising call" true (flow_fixture src <> [])

let test_persist_order_clean_merge () =
  let src =
    "let f dev cpu src small =\n\
    \  Device.with_site dev site (fun () ->\n\
    \      Device.write dev cpu ~off:0 ~src ~src_off:0 ~len:64);\n\
    \  (if small then Device.persist dev cpu ~off:0 ~len:64\n\
    \   else begin\n\
    \     Device.flush dev cpu ~off:0 ~len:64;\n\
    \     Device.fence dev cpu\n\
    \   end);\n\
    \  Device.annotate dev (Txn_commit { txn = 1 })\n"
  in
  Alcotest.(check int) "uniformly persisted merge is silent" 0 (List.length (flow_fixture src))

let test_persist_order_deferred_nt_batch () =
  let src =
    "let f dev cpu src =\n\
    \  Device.with_site dev site (fun () ->\n\
    \      Device.write_nt dev cpu ~off:0 ~src ~src_off:0 ~len:64;\n\
    \      Device.write_nt dev cpu ~off:64 ~src ~src_off:0 ~len:64);\n\
    \  Device.fence dev cpu\n"
  in
  Alcotest.(check int) "batched NT stores drained by one fence" 0 (List.length (flow_fixture src))

let test_persist_order_unfenced_string_nt () =
  (* A non-temporal store from a sub-range of an immutable source is
     classified like [write_nt]: durable only at the next fence. *)
  let src =
    "let f dev cpu src =\n\
    \  Device.with_site dev site (fun () ->\n\
    \      Device.write_string_nt dev cpu ~off:0 ~src ~src_off:64 ~len:64);\n\
    \  Device.annotate dev (Txn_commit { txn = 1 })\n"
  in
  match flow_fixture src with
  | [ d ] ->
      Alcotest.(check bool) "names the store" true
        (contains_sub ~sub:"Device.write_string_nt" d.Diag.msg);
      Alcotest.(check bool) "flushed but unfenced" true (contains_sub ~sub:"fence" d.Diag.msg)
  | ds -> Alcotest.failf "expected exactly one persist-order diag, got %d" (List.length ds)

(* ------------------------------------------------------------------ *)
(* determinism *)

let det_fixture ?(path = "lib/core/fixture.ml") src =
  diags_of_rule "determinism" (Lint.analyze_string ~path src)

let test_determinism_wall_clock () =
  match det_fixture "let f () = Unix.gettimeofday ()\n" with
  | [ d ] ->
      Alcotest.(check bool) "names the call" true (contains_sub ~sub:"Unix.gettimeofday" d.Diag.msg)
  | ds -> Alcotest.failf "expected exactly one determinism diag, got %d" (List.length ds)

let test_determinism_hash_order_flagged () =
  match det_fixture "let f h = Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []\n" with
  | [ d ] -> Alcotest.(check bool) "hash order" true (contains_sub ~sub:"hash order" d.Diag.msg)
  | ds -> Alcotest.failf "expected exactly one determinism diag, got %d" (List.length ds)

let test_determinism_int_hashtbl_order_flagged () =
  let src = "let f h = Repro_util.Int_hashtbl.fold (fun k v acc -> (k, v) :: acc) h []\n" in
  match det_fixture src with
  | [ d ] -> Alcotest.(check bool) "hash order" true (contains_sub ~sub:"hash order" d.Diag.msg)
  | ds -> Alcotest.failf "expected exactly one determinism diag, got %d" (List.length ds)

let test_determinism_sorted_traversal_exempt () =
  let src = "let f cmp h = Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [] |> List.sort cmp\n" in
  Alcotest.(check int) "traversal feeding a sort is exempt" 0 (List.length (det_fixture src))

let test_determinism_wildcard_callback_exempt () =
  let src = "let f h = Hashtbl.iter (fun _ v -> close v) h\n" in
  Alcotest.(check int) "key-insensitive callback is exempt" 0 (List.length (det_fixture src))

let test_determinism_poly_eq_hot_path_only () =
  let src = "let f k = k = Directory\n" in
  (match det_fixture src with
  | [ d ] ->
      Alcotest.(check bool) "names the constructor" true (contains_sub ~sub:"Directory" d.Diag.msg)
  | ds -> Alcotest.failf "expected exactly one determinism diag, got %d" (List.length ds));
  Alcotest.(check int) "outside the hot-path scope poly = passes" 0
    (List.length (det_fixture ~path:"lib/workloads/fixture.ml" src))

(* ------------------------------------------------------------------ *)
(* engine: deterministic output *)

let test_diag_normalize_sorts_and_dedupes () =
  let d file line col rule = Diag.at ~file ~line ~col ~rule ~hint:"h" "m" in
  let shuffled =
    [
      d "b.ml" 3 0 "r1";
      d "a.ml" 9 2 "r2";
      d "a.ml" 9 2 "r2" (* exact duplicate *);
      d "a.ml" 9 2 "r1";
      d "a.ml" 1 5 "r9";
    ]
  in
  let n = Diag.normalize shuffled in
  Alcotest.(check int) "duplicates dropped" 4 (List.length n);
  Alcotest.(check (list (triple int int string)))
    "sorted by (file, line, col, rule)"
    [ (1, 5, "r9"); (9, 2, "r1"); (9, 2, "r2"); (3, 0, "r1") ]
    (List.map diag_triple n);
  Alcotest.(check bool) "idempotent" true (Diag.normalize n = n)

(* ------------------------------------------------------------------ *)
(* engine: allowlist *)

let test_allowlist_suppresses_and_counts () =
  let src = "let f dev cpu b =\n  Device.write_nt dev cpu ~off:0 ~src:b ~src_off:0 ~len:8\n" in
  let files, parse =
    match Source.parse_string ~path:"lib/core/fixture.ml" src with
    | Ok f -> ([ f ], [])
    | Error d -> ([], [ d ])
  in
  let allow =
    [ { Lint.a_rule = "persist-site"; a_file = "lib/core/fixture.ml"; a_reason = "fixture" } ]
  in
  let r = Lint.run ~allowlist:allow files ~parse in
  Alcotest.(check int) "diag suppressed" 0 (List.length r.Lint.diags);
  Alcotest.(check int) "suppression counted" 1 r.Lint.suppressed;
  Alcotest.(check int) "clean exit" 0 (Lint.exit_code r)

let test_parse_error_exit_code () =
  let r =
    match Source.parse_string ~path:"lib/core/fixture.ml" "let f = (\n" with
    | Ok _ -> Alcotest.fail "expected a parse error"
    | Error d -> Lint.run [] ~parse:[ d ]
  in
  Alcotest.(check int) "parse errors force exit 2" 2 (Lint.exit_code r)

(* ------------------------------------------------------------------ *)
(* clean tree + probe containment over the real sources *)

let real_roots () =
  (* dune copies the source tree next to the test binary's parent dir;
     when run from the repo root the plain paths work too. *)
  if Sys.file_exists "../lib" then [ "../lib"; "../bin" ]
  else if Sys.file_exists "lib" then [ "lib"; "bin" ]
  else Alcotest.skip ()

let test_clean_tree () =
  let r = Lint.analyze (real_roots ()) in
  Alcotest.(check int) "no parse errors" 0 r.Lint.parse_errors;
  Alcotest.(check bool) "scanned the whole tree" true (r.Lint.files_scanned > 100);
  (match r.Lint.diags with
  | [] -> ()
  | d :: _ -> Alcotest.failf "repo sources must stay srccheck-clean, first: %s" (Diag.to_string d));
  Alcotest.(check int) "exit code 0" 0 (Lint.exit_code r)

let test_probe_containment () =
  let files, parse = Source.load_roots (real_roots ()) in
  Alcotest.(check int) "no parse errors" 0 (List.length parse);
  let p = Probe.run files in
  Alcotest.(check bool) "probe exercised the scheduler" true (p.Probe.acquisitions > 0);
  (match p.Probe.runtime_cycle with
  | None -> ()
  | Some c -> Alcotest.failf "observed lock-order cycle: %s" (String.concat " -> " c));
  match p.Probe.diags with
  | [] -> ()
  | d :: _ -> Alcotest.failf "static graph must contain observed edges, first: %s" (Diag.to_string d)

let test_flow_probe_containment () =
  let r = Probe.run_flow () in
  Alcotest.(check int) "all paired scenarios replayed" (List.length Flow_scenarios.all)
    (List.length r.Probe.flow_scenarios);
  match r.Probe.flow_diags with
  | [] -> ()
  | d :: _ ->
      Alcotest.failf "flow containment (static ⊇ dynamic) must hold, first: %s" (Diag.to_string d)

(* The planted branch-only persist bug: the executed run takes the
   healthy branch, so the sanitizer reports nothing — only the every-path
   dataflow reaches the degraded branch's missing fence. *)
let test_hidden_error_path_dynamic_miss_static_catch () =
  let sc = Flow_scenarios.hidden_error_path in
  Alcotest.(check int) "sanitizer sees a clean execution" 0
    (List.length (Flow_scenarios.dynamic_errors sc));
  match Flow_scenarios.static_diags sc with
  | [] -> Alcotest.fail "flowcheck missed the planted branch-only bug"
  | ds ->
      List.iter
        (fun (d : Diag.t) ->
          Alcotest.(check string) "carried by the persist-order rule" "persist-order" d.Diag.rule)
        ds

(* ------------------------------------------------------------------ *)
(* the planted ABBA the dynamic detector cannot see *)

let m1 = Sched.create_mutex ~name:"fixture:m1" ()
let m2 = Sched.create_mutex ~name:"fixture:m2" ()

(* Temporally-separated ABBA: thread 1 polls a DRAM flag and only starts
   its (reversed) nesting after thread 0 has released both locks, so no
   schedule whatsoever can block — yet the acquired-before relation is
   cyclic and the deadlock is one unlucky preemption away in a world with
   real parallelism. *)
let planted_abba =
  {
    Race.sc_name = "planted-abba";
    sc_threads = 2;
    sc_prepare =
      (fun () ->
        let dev = Device.create ~cost:Device.Cost.free ~size:Units.base_page () in
        let first_done = ref false in
        let body (cpu : Cpu.t) =
          if cpu.id = 0 then begin
            Sched.with_lock m1 (fun () ->
                Sched.yield ();
                Sched.with_lock m2 (fun () -> ()));
            first_done := true
          end
          else begin
            while not !first_done do
              (* Charge simulated time so the earliest-clock policy does
                 not starve thread 0 while we poll. *)
              Simclock.advance cpu.clock 1_000;
              Sched.yield ()
            done;
            Sched.with_lock m2 (fun () ->
                Sched.yield ();
                Sched.with_lock m1 (fun () -> ()))
          end
        in
        (dev, body));
  }

let test_planted_abba_dynamic_miss_static_catch () =
  Sched.Lock_order.reset ();
  (* The racecheck gate's default budget: 25 seeded schedules from base
     seed 42 (plus the earliest-clock baseline).  No data race exists —
     the hazard is lock ordering, which schedule exploration cannot
     surface because the two nestings never overlap in time. *)
  let o = Race.explore ~schedules:25 ~seed:42 planted_abba in
  Alcotest.(check int) "dynamic detector finds nothing" 0 (List.length o.Race.o_races);
  (match Sched.Lock_order.cycle () with
  | Some cyc ->
      Alcotest.(check bool) "recorder sees the ABBA cycle" true
        (List.mem "fixture:m1" cyc && List.mem "fixture:m2" cyc)
  | None -> Alcotest.fail "lock-order recorder missed the planted ABBA cycle");
  (* And the static rule catches the same shape from source alone. *)
  (match diags_of_rule "lock-order" (Lint.analyze_string ~path:"lib/core/planted.ml" abba_src) with
  | [ _ ] -> ()
  | ds -> Alcotest.failf "static rule: expected one cycle diag, got %d" (List.length ds));
  Sched.Lock_order.reset ()

let suite =
  [
    Alcotest.test_case "persist-site: raw store flagged" `Quick test_persist_site_flags_raw_store;
    Alcotest.test_case "persist-site: with_site covers" `Quick test_persist_site_covered_by_with_site;
    Alcotest.test_case "persist-site: lib/pmem exempt" `Quick test_persist_site_pmem_exempt;
    Alcotest.test_case "ownership: stray journal use flagged" `Quick
      test_ownership_flags_stray_journal_use;
    Alcotest.test_case "ownership: owning layer allowed" `Quick test_ownership_allows_owning_layer;
    Alcotest.test_case "ownership: Counters outside the Vmem readers" `Quick
      test_ownership_flags_fs_counters;
    Alcotest.test_case "error-discipline: catch-all" `Quick test_error_discipline_catch_all;
    Alcotest.test_case "error-discipline: blanket errno" `Quick
      test_error_discipline_undiscriminated_errno;
    Alcotest.test_case "error-discipline: narrow handler clean" `Quick
      test_error_discipline_narrow_is_clean;
    Alcotest.test_case "error-discipline: re-raise clean" `Quick
      test_error_discipline_reraise_is_clean;
    Alcotest.test_case "error-discipline: ignored invariants" `Quick
      test_error_discipline_ignored_invariants;
    Alcotest.test_case "lock-order: interprocedural ABBA" `Quick test_lock_order_cycle_static;
    Alcotest.test_case "lock-order: consistent order clean" `Quick
      test_lock_order_nested_one_way_is_clean;
    Alcotest.test_case "lock-order: self nest" `Quick test_lock_order_self_nest;
    Alcotest.test_case "persist-order: dirty at commit" `Quick test_persist_order_dirty_at_commit;
    Alcotest.test_case "persist-order: flush without fence" `Quick
      test_persist_order_flush_without_fence;
    Alcotest.test_case "persist-order: branch-only bug" `Quick test_persist_order_branch_only_bug;
    Alcotest.test_case "persist-order: try handler escape" `Quick
      test_persist_order_try_handler_escape;
    Alcotest.test_case "persist-order: clean merge" `Quick test_persist_order_clean_merge;
    Alcotest.test_case "persist-order: deferred NT batch" `Quick
      test_persist_order_deferred_nt_batch;
    Alcotest.test_case "persist-order: unfenced NT string sub-range" `Quick
      test_persist_order_unfenced_string_nt;
    Alcotest.test_case "determinism: wall clock" `Quick test_determinism_wall_clock;
    Alcotest.test_case "determinism: hash-order traversal" `Quick
      test_determinism_hash_order_flagged;
    Alcotest.test_case "determinism: Int_hashtbl traversal" `Quick
      test_determinism_int_hashtbl_order_flagged;
    Alcotest.test_case "determinism: sorted traversal exempt" `Quick
      test_determinism_sorted_traversal_exempt;
    Alcotest.test_case "determinism: wildcard callback exempt" `Quick
      test_determinism_wildcard_callback_exempt;
    Alcotest.test_case "determinism: poly = scoped to hot paths" `Quick
      test_determinism_poly_eq_hot_path_only;
    Alcotest.test_case "engine: normalize sorts and dedupes" `Quick
      test_diag_normalize_sorts_and_dedupes;
    Alcotest.test_case "engine: allowlist suppresses" `Quick test_allowlist_suppresses_and_counts;
    Alcotest.test_case "engine: parse error exit code" `Quick test_parse_error_exit_code;
    Alcotest.test_case "clean tree" `Quick test_clean_tree;
    Alcotest.test_case "probe containment" `Quick test_probe_containment;
    Alcotest.test_case "flow probe containment" `Quick test_flow_probe_containment;
    Alcotest.test_case "hidden error path: dynamic miss, static catch" `Quick
      test_hidden_error_path_dynamic_miss_static_catch;
    Alcotest.test_case "planted ABBA: dynamic miss, static catch" `Quick
      test_planted_abba_dynamic_miss_static_catch;
  ]
