(* Durability-lint unit tests: one violating and one conforming sequence
   per rule, driven against a raw device, plus strict-mode behaviour and
   the regression that the whole ACE corpus is violation-free. *)

module Device = Repro_pmem.Device
module Site = Repro_pmem.Site
module Sanitizer = Repro_sanitizer.Sanitizer
module Sanitize = Repro_crashcheck.Sanitize
module Ace = Repro_crashcheck.Ace

let cpu = Repro_util.Cpu.make ~id:0 ()

let with_dev f =
  let dev = Device.create ~cost:Device.Cost.free ~size:4096 () in
  Sanitizer.with_device dev (fun _ -> f dev)

let store ?(site = Site.v "test" "store") dev ~off ~len =
  Device.with_site dev site (fun () ->
      Device.write dev cpu ~off ~src:(Bytes.make len 'x') ~src_off:0 ~len)

let rules ds = List.map (fun d -> d.Sanitizer.rule) ds

let check_rules msg expected ds =
  Alcotest.(check (list string)) msg
    (List.map Sanitizer.rule_name expected)
    (List.map Sanitizer.rule_name (rules ds))

(* --- R1: covered line still dirty at commit ----------------------- *)

let r1_violating () =
  let (), ds =
    with_dev (fun dev ->
        Device.annotate dev (Txn_begin { txn = 1 });
        Device.annotate dev (Covered { txn = 1; addr = 0; len = 64 });
        store dev ~off:0 ~len:64;
        (* No flush: the commit record persists over a dirty line. *)
        Device.annotate dev (Txn_commit { txn = 1 }))
  in
  check_rules "one R1" [ Sanitizer.R1_missing_flush ] ds;
  let d = List.hd ds in
  (* Acceptance shape: the diagnostic names rule, site and cache line. *)
  Alcotest.(check string) "site" "test.store" (Site.to_string d.Sanitizer.site);
  Alcotest.(check int) "cache line" 0 d.Sanitizer.line;
  Alcotest.(check int) "byte offset" 0 (Sanitizer.diag_offset d);
  Alcotest.(check bool) "names the rule" true
    (String.length (Sanitizer.diag_to_string d) > 0
    && String.sub (Sanitizer.diag_to_string d) 0 2 = "R1")

let r1_conforming () =
  let (), ds =
    with_dev (fun dev ->
        Device.annotate dev (Txn_begin { txn = 1 });
        Device.annotate dev (Covered { txn = 1; addr = 0; len = 64 });
        store dev ~off:0 ~len:64;
        Device.persist dev cpu ~off:0 ~len:64;
        Device.annotate dev (Txn_commit { txn = 1 }))
  in
  check_rules "clean" [] ds

(* --- R2: flushed-never-fenced, and recovery reading non-durable --- *)

let r2_violating_unfenced () =
  let (), ds =
    with_dev (fun dev ->
        store dev ~off:192 ~len:64;
        Device.flush dev cpu ~off:192 ~len:64
        (* no fence before the run ends *))
  in
  check_rules "one R2" [ Sanitizer.R2_missing_fence ] ds;
  Alcotest.(check int) "line" 3 (List.hd ds).Sanitizer.line

let r2_violating_recovery_read () =
  let (), ds =
    with_dev (fun dev ->
        store dev ~off:64 ~len:64;
        (* Dirty line read back as recovery input. *)
        Device.annotate dev Recovery_begin;
        ignore (Device.read_string dev cpu ~off:64 ~len:64);
        Device.annotate dev Recovery_end)
  in
  check_rules "one R2" [ Sanitizer.R2_missing_fence ] ds

let r2_conforming () =
  let (), ds =
    with_dev (fun dev ->
        store dev ~off:64 ~len:64;
        Device.persist dev cpu ~off:64 ~len:64;
        Device.annotate dev Recovery_begin;
        ignore (Device.read_string dev cpu ~off:64 ~len:64);
        Device.annotate dev Recovery_end)
  in
  check_rules "clean" [] ds

(* --- R3: redundant flush (warning, aggregated per site) ----------- *)

let r3_violating () =
  let site = Site.v "test" "flusher" in
  let (), ds =
    with_dev (fun dev ->
        store dev ~off:0 ~len:64;
        Device.with_site dev site (fun () ->
            Device.flush dev cpu ~off:0 ~len:64;
            Device.flush dev cpu ~off:0 ~len:64 (* already flushed *));
        Device.fence dev cpu;
        Device.with_site dev site (fun () ->
            Device.flush dev cpu ~off:0 ~len:64 (* clean *));
        Device.fence dev cpu)
  in
  check_rules "one aggregated R3" [ Sanitizer.R3_redundant_flush ] ds;
  let d = List.hd ds in
  Alcotest.(check int) "two redundant flushes folded" 2 d.Sanitizer.count;
  Alcotest.(check bool) "warning severity" true (d.Sanitizer.severity = Sanitizer.Warning)

let r3_conforming () =
  let (), ds =
    with_dev (fun dev ->
        store dev ~off:0 ~len:64;
        Device.persist dev cpu ~off:0 ~len:64;
        store dev ~off:0 ~len:64;
        Device.persist dev cpu ~off:0 ~len:64)
  in
  check_rules "clean" [] ds

(* --- R4: in-place store before the undo entry is durable ---------- *)

let r4_violating () =
  let (), ds =
    with_dev (fun dev ->
        Device.annotate dev (Txn_begin { txn = 7 });
        store dev ~off:128 ~len:64;
        (* Undo entry persisted only after the store clobbered the data. *)
        Device.annotate dev (Covered { txn = 7; addr = 128; len = 64 });
        Device.persist dev cpu ~off:128 ~len:64;
        Device.annotate dev (Txn_commit { txn = 7 }))
  in
  check_rules "one R4" [ Sanitizer.R4_undo_protocol ] ds;
  Alcotest.(check int) "line" 2 (List.hd ds).Sanitizer.line

let r4_conforming_order () =
  let (), ds =
    with_dev (fun dev ->
        Device.annotate dev (Txn_begin { txn = 7 });
        Device.annotate dev (Covered { txn = 7; addr = 128; len = 64 });
        store dev ~off:128 ~len:64;
        Device.persist dev cpu ~off:128 ~len:64;
        Device.annotate dev (Txn_commit { txn = 7 }))
  in
  check_rules "clean" [] ds

let r4_conforming_fresh () =
  (* Initialize-then-publish: stores to a [Fresh] range need no coverage
     even when the range is journaled later in the same transaction. *)
  let (), ds =
    with_dev (fun dev ->
        Device.annotate dev (Txn_begin { txn = 7 });
        Device.annotate dev (Fresh { addr = 128; len = 128 });
        store dev ~off:128 ~len:128;
        Device.persist dev cpu ~off:128 ~len:128;
        Device.annotate dev (Covered { txn = 7; addr = 160; len = 8 });
        store dev ~off:160 ~len:8;
        Device.persist dev cpu ~off:160 ~len:8;
        Device.annotate dev (Txn_commit { txn = 7 }))
  in
  check_rules "clean" [] ds

let r4_prior_txn_store_exempt () =
  (* Stores from an earlier transaction do not implicate a later one. *)
  let (), ds =
    with_dev (fun dev ->
        Device.annotate dev (Txn_begin { txn = 1 });
        store dev ~off:128 ~len:64;
        Device.persist dev cpu ~off:128 ~len:64;
        Device.annotate dev (Txn_commit { txn = 1 });
        Device.annotate dev (Txn_begin { txn = 2 });
        Device.annotate dev (Covered { txn = 2; addr = 128; len = 64 });
        store dev ~off:128 ~len:64;
        Device.persist dev cpu ~off:128 ~len:64;
        Device.annotate dev (Txn_commit { txn = 2 }))
  in
  check_rules "clean" [] ds

(* --- R5: covered line flushed but unfenced at commit -------------- *)

let r5_violating () =
  let (), ds =
    with_dev (fun dev ->
        Device.annotate dev (Txn_begin { txn = 1 });
        Device.annotate dev (Covered { txn = 1; addr = 0; len = 64 });
        store dev ~off:0 ~len:64;
        Device.flush dev cpu ~off:0 ~len:64;
        (* Missing sfence: commit record may beat the data to PM. *)
        Device.annotate dev (Txn_commit { txn = 1 });
        Device.fence dev cpu)
  in
  check_rules "one R5" [ Sanitizer.R5_commit_order ] ds

let r5_conforming () =
  let (), ds =
    with_dev (fun dev ->
        Device.annotate dev (Txn_begin { txn = 1 });
        Device.annotate dev (Covered { txn = 1; addr = 0; len = 64 });
        store dev ~off:0 ~len:64;
        Device.flush dev cpu ~off:0 ~len:64;
        Device.fence dev cpu;
        Device.annotate dev (Txn_commit { txn = 1 }))
  in
  check_rules "clean" [] ds

(* --- non-temporal stores: durable at fence, no flush needed ------- *)

let nt_store_conforming () =
  let (), ds =
    with_dev (fun dev ->
        Device.annotate dev (Txn_begin { txn = 1 });
        Device.annotate dev (Covered { txn = 1; addr = 0; len = 128 });
        Device.write_string_nt dev cpu ~off:0 ~src:(String.make 128 'z') ~src_off:0 ~len:128;
        Device.fence dev cpu;
        Device.annotate dev (Txn_commit { txn = 1 }))
  in
  check_rules "clean" [] ds

(* --- strict mode -------------------------------------------------- *)

let strict_raises () =
  let dev = Device.create ~cost:Device.Cost.free ~size:4096 () in
  match
    Sanitizer.with_device ~strict:true dev (fun _ ->
        Device.annotate dev (Txn_begin { txn = 1 });
        Device.annotate dev (Covered { txn = 1; addr = 0; len = 64 });
        store dev ~off:0 ~len:64;
        Device.annotate dev (Txn_commit { txn = 1 }))
  with
  | _ -> Alcotest.fail "strict mode did not raise"
  | exception Sanitizer.Violation d ->
      Alcotest.(check string) "rule" "R1-missing-flush" (Sanitizer.rule_name d.Sanitizer.rule)

let strict_warning_does_not_raise () =
  let dev = Device.create ~cost:Device.Cost.free ~size:4096 () in
  let (), ds =
    Sanitizer.with_device ~strict:true dev (fun _ ->
        store dev ~off:0 ~len:64;
        Device.persist dev cpu ~off:0 ~len:64;
        Device.flush dev cpu ~off:0 ~len:64 (* redundant: warning only *);
        Device.fence dev cpu)
  in
  check_rules "R3 reported, not raised" [ Sanitizer.R3_redundant_flush ] ds

let rule_subset () =
  let dev = Device.create ~cost:Device.Cost.free ~size:4096 () in
  let (), ds =
    Sanitizer.with_device ~rules:[ Sanitizer.R4_undo_protocol ] dev (fun _ ->
        Device.annotate dev (Txn_begin { txn = 1 });
        Device.annotate dev (Covered { txn = 1; addr = 0; len = 64 });
        store dev ~off:0 ~len:64;
        (* R1 candidate, but only R4 is enabled. *)
        Device.annotate dev (Txn_commit { txn = 1 }))
  in
  check_rules "R1 suppressed" [] ds

let detach_stops_observing () =
  let dev = Device.create ~cost:Device.Cost.free ~size:4096 () in
  let t = Sanitizer.attach dev in
  store dev ~off:0 ~len:64;
  Sanitizer.detach t;
  Device.flush dev cpu ~off:0 ~len:64;
  Device.flush dev cpu ~off:0 ~len:64;
  (* The redundant flush after detach is invisible. *)
  Alcotest.(check int) "no diagnostics" 0 (List.length (Sanitizer.finish t))

(* --- seeded FS-level bug: a missing flush is caught --------------- *)

let seeded_missing_flush_in_fs () =
  (* Run a real WineFS workload, then re-execute a metadata update with
     the flush deliberately dropped: store to a journal-covered inode
     range, skip the flush, commit.  The lint must name the rule and the
     seeded site. *)
  let seeded = Site.v "seed" "no-flush" in
  let r =
    Sanitize.run_custom ~name:"seeded" (fun h cpu ->
        let (Repro_vfs.Fs_intf.Handle ((module F), fs)) = h in
        F.mkdir fs cpu "/d";
        let dev = F.device fs in
        Device.with_site dev seeded (fun () ->
            Device.annotate dev (Txn_begin { txn = 999_999 });
            Device.annotate dev (Covered { txn = 999_999; addr = 1024; len = 64 });
            Device.write dev cpu ~off:1024 ~src:(Bytes.make 64 '\000') ~src_off:0 ~len:64;
            Device.annotate dev (Txn_commit { txn = 999_999 })))
  in
  let d =
    match
      List.find_opt (fun d -> d.Sanitizer.rule = Sanitizer.R1_missing_flush) r.Sanitize.diags
    with
    | Some d -> d
    | None -> Alcotest.fail "seeded missing flush not detected"
  in
  Alcotest.(check string) "site label" "seed.no-flush" (Site.to_string d.Sanitizer.site);
  Alcotest.(check int) "cache line offset" 1024 (Sanitizer.diag_offset d)

(* --- regression: the real FS corpus is violation-free ------------- *)

let ace_corpus_clean () =
  (* Strict mode: the first violating access raises, so completion IS the
     assertion; count errors anyway for a readable failure. *)
  let reports = Sanitize.run_ace ~strict:true Ace.all in
  Alcotest.(check int) "no errors over Ace.all" 0 (Sanitize.total_errors reports)

let ace_relaxed_clean () =
  let reports = Sanitize.run_ace ~strict:true ~mode:Repro_vfs.Types.Relaxed Ace.seq1 in
  Alcotest.(check int) "no errors (relaxed)" 0 (Sanitize.total_errors reports)

let suite =
  [
    Alcotest.test_case "R1 violating" `Quick r1_violating;
    Alcotest.test_case "R1 conforming" `Quick r1_conforming;
    Alcotest.test_case "R2 flushed-unfenced" `Quick r2_violating_unfenced;
    Alcotest.test_case "R2 recovery-read" `Quick r2_violating_recovery_read;
    Alcotest.test_case "R2 conforming" `Quick r2_conforming;
    Alcotest.test_case "R3 violating" `Quick r3_violating;
    Alcotest.test_case "R3 conforming" `Quick r3_conforming;
    Alcotest.test_case "R4 violating" `Quick r4_violating;
    Alcotest.test_case "R4 conforming order" `Quick r4_conforming_order;
    Alcotest.test_case "R4 fresh-range exemption" `Quick r4_conforming_fresh;
    Alcotest.test_case "R4 prior-txn store exempt" `Quick r4_prior_txn_store_exempt;
    Alcotest.test_case "R5 violating" `Quick r5_violating;
    Alcotest.test_case "R5 conforming" `Quick r5_conforming;
    Alcotest.test_case "nt store conforming" `Quick nt_store_conforming;
    Alcotest.test_case "strict raises on error" `Quick strict_raises;
    Alcotest.test_case "strict ignores warnings" `Quick strict_warning_does_not_raise;
    Alcotest.test_case "rule subset" `Quick rule_subset;
    Alcotest.test_case "detach stops observing" `Quick detach_stops_observing;
    Alcotest.test_case "seeded FS missing flush" `Quick seeded_missing_flush_in_fs;
    Alcotest.test_case "ACE corpus strict-clean" `Slow ace_corpus_clean;
    Alcotest.test_case "ACE relaxed strict-clean" `Quick ace_relaxed_clean;
  ]
