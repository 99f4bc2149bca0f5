(* pmcheck — every checking campaign over the simulated PM stack, behind
   one driver (`pmcheck --help` lists them; the default is the
   durability lint).  A campaign is its arguments (a cmdliner Term that
   validates them), one call into lib/ that generates and judges the
   cases, and its row formatting; [exec] owns the rest: --format
   human|json, --verbose, usage errors, printing and the exit code (0
   clean, 1 findings, 2 usage error, 124 cmdliner parse error). *)

open Cmdliner
module Json = Repro_stats.Json
module Ace = Repro_crashcheck.Ace
module Checker = Repro_crashcheck.Checker
module Faultcheck = Repro_crashcheck.Faultcheck
module Torturecheck = Repro_crashcheck.Torturecheck
module Fsck_scenarios = Repro_fsck.Fsck_scenarios
module Sanitize = Repro_crashcheck.Sanitize
module Sanitizer = Sanitize.Sanitizer
module Race = Repro_race.Race
module Scenarios = Repro_race.Scenarios
module Sched = Repro_sched.Sched
module Table = Repro_util.Table
module Lint = Repro_lint.Lint
module Lint_source = Repro_lint.Source
module Lint_diag = Repro_lint.Diag
module Probe = Repro_lint.Probe

let sprintf = Printf.sprintf

type report = {
  lines : string list;  (** always printed, after the header *)
  findings : string list;  (** per-case detail: printed when verbose or failing *)
  summary : string list;
  ok : bool;  (** exit 0, else 1 *)
  json : (string * Json.t) list;  (** the --format=json object *)
}

type 'args campaign = {
  name : string;
  doc : string;
  args : 'args Term.t;  (** validated: a bad value never reaches [run] *)
  header : 'args -> string;  (** printed and flushed before [run] starts *)
  run : 'args -> report;
}

(* The one usage-error exit: every argument check funnels here. *)
let usage fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 2) fmt

let exec c =
  let format = Arg.(value & opt string "human" & info [ "format" ] ~doc:"human or json") in
  let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Per-case detail when clean") in
  let go format verbose args =
    let json =
      match format with
      | "human" -> false
      | "json" -> true
      | f -> usage "--format must be human or json (got %s)" f
    in
    if not json then Printf.printf "%s\n%!" (c.header args);
    let r = c.run args in
    if json then print_endline (Json.to_string ~indent:true (Json.Obj r.json))
    else
      List.iter print_endline
        (r.lines @ (if verbose || not r.ok then r.findings else []) @ r.summary);
    if r.ok then 0 else 1
  in
  Term.(const go $ format $ verbose $ c.args)

let cmd c = Cmd.v (Cmd.info c.name ~doc:c.doc) (exec c)

(* The one --seq parser; each campaign keeps its own default. *)
let workloads_arg ~default =
  let pick = function
    | 0 -> Ace.all
    | 1 -> Ace.seq1
    | 2 -> Ace.seq2
    | 3 -> Ace.seq3
    | n -> usage "--seq must be 1, 2, 3, or 0 for all (got %d)" n
  in
  let doc = "ACE workload length (1-3; 0 = all)" in
  Term.(const pick $ Arg.(value & opt int default & info [ "seq" ] ~doc))

let int_arg ~min name default doc =
  let check n = if n < min then usage "--%s must be at least %d (got %d)" name min n else n in
  let arg = Arg.(value & opt int default & info [ name ] ~doc) in
  Term.(const check $ arg)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Campaign seed (printed in every report)")

let ints = List.map (fun (k, v) -> (k, Json.Int v))
let strings l = Json.List (List.map (fun s -> Json.String s) l)
let objs f l = Json.List (List.map (fun x -> Json.Obj (f x)) l)
let when_ok ok line = if ok then [ line ] else []

(* ------------------------------------------------------------------ *)

type lint_args =
  { workloads : Ace.workload list; strict : bool; no_micro : bool; relaxed : bool;
    rules : Sanitizer.rule list }

let parse_rules = function
  | "" -> Sanitizer.all_rules
  | s ->
      String.split_on_char ',' s
      |> List.map (fun r ->
             match String.trim r with
             | "R1" -> Sanitizer.R1_missing_flush
             | "R2" -> Sanitizer.R2_missing_fence
             | "R3" -> Sanitizer.R3_redundant_flush
             | "R4" -> Sanitizer.R4_undo_protocol
             | "R5" -> Sanitizer.R5_commit_order
             | _ -> usage "unknown rule %S (expected R1..R5)" r)

let lint_report reports =
  let table =
    Table.create ~title:"Durability violations"
      ~columns:[ "workload"; "rule"; "severity"; "site"; "cacheline"; "count"; "detail" ]
  in
  List.iter
    (fun (r : Sanitize.report) ->
      List.iter
        (fun (d : Sanitizer.diag) ->
          Table.add_row table
            [ r.name; Sanitizer.rule_name d.rule;
              (match d.severity with Sanitizer.Error -> "error" | Warning -> "warning");
              Repro_pmem.Site.to_string d.site;
              sprintf "%d (0x%x)" d.line (Sanitizer.diag_offset d);
              string_of_int d.count; d.detail ])
        r.diags)
    reports;
  let rows = List.length (Table.rows table) and errors = Sanitize.total_errors reports in
  let rendered = Table.render table in
  let diags (r : Sanitize.report) =
    List.map (fun d -> r.name ^ ": " ^ Sanitizer.diag_to_string d) r.diags
  in
  let status (r : Sanitize.report) =
    sprintf "  %-28s %s" r.name
      (if r.diags = [] then "clean" else sprintf "%d diagnostic(s)" (List.length r.diags))
  in
  {
    lines = (if rows = 0 then [] else [ String.sub rendered 0 (String.length rendered - 1) ]);
    findings = List.map status reports;
    summary =
      [ "";
        sprintf "pmcheck: %d workloads, %d diagnostics (%d errors)" (List.length reports) rows
          errors ]
      @ when_ok (errors = 0) "No persistence-ordering violations.";
    ok = errors = 0;
    json =
      ints [ ("workloads", List.length reports); ("diagnostics", rows); ("errors", errors) ]
      @ [ ("diags", strings (List.concat_map diags reports)) ];
  }

let lint =
  let switch name doc = Arg.(value & flag & info [ name ] ~doc) in
  let rules =
    Arg.(value & opt string "" & info [ "rules" ] ~doc:"Comma-separated rule subset (R1..R5)")
  in
  {
    name = "pmcheck";
    doc = "Concurrency and persistence checkers for the WineFS PM stack";
    args =
      Term.(
        const (fun workloads strict no_micro relaxed rules ->
            { workloads; strict; no_micro; relaxed; rules = parse_rules rules })
        $ workloads_arg ~default:0
        $ switch "strict" "Raise at the first violating access"
        $ switch "no-micro" "Skip the micro-workload suite"
        $ switch "relaxed" "Run the file system in relaxed mode"
        $ rules);
    header =
      (fun a ->
        sprintf "pmcheck: %d ACE workloads%s, %s mode%s" (List.length a.workloads)
          (if a.no_micro then "" else " + micro suite")
          (if a.relaxed then "relaxed" else "strict")
          (if a.strict then ", stopping at the first violation" else ""));
    run =
      (fun a ->
        let mode = if a.relaxed then Repro_vfs.Types.Relaxed else Repro_vfs.Types.Strict in
        let strict = a.strict and rules = a.rules in
        match
          Sanitize.run_ace ~strict ~rules ~mode a.workloads
          @ if a.no_micro then [] else Sanitize.run_micro ~strict ~rules ()
        with
        | exception Sanitizer.Violation d ->
            let v = "VIOLATION: " ^ Sanitizer.diag_to_string d in
            { lines = [ v ]; findings = []; summary = []; ok = false;
              json = [ ("violation", Json.String v) ] }
        | reports -> lint_report reports);
  }

let crashcheck =
  {
    name = "crashcheck";
    doc = "Crash-consistency campaign: every crash state must recover to one side of its op";
    args = workloads_arg ~default:0;
    header =
      (fun ws ->
        sprintf "Running %d ACE workloads against WineFS (strict mode)..." (List.length ws));
    run =
      (fun ws ->
        let rs =
          List.map (fun (w : Ace.workload) -> (w.w_name, Checker.run ~workloads:[ w ] ())) ws
        in
        let sum f = List.fold_left (fun acc (_, r) -> acc + f r) 0 rs in
        let points = sum (fun r -> r.Checker.crash_points) in
        let states = sum (fun r -> r.Checker.states_checked) in
        let failures =
          List.concat_map (fun (w, r) -> List.map (fun (_, d) -> w ^ ": " ^ d) r.Checker.failures)
            rs
        in
        let row (w, (r : Checker.result)) =
          sprintf "  %-28s %4d crash points %6d states %s" w r.crash_points r.states_checked
            (if r.failures = [] then "ok" else "FAILED")
          :: List.map (fun (_, d) -> "      " ^ d) r.failures
        in
        {
          lines = [];
          findings = List.concat_map row rs;
          summary =
            [ "";
              sprintf "campaign: %d workloads, %d crash points, %d crash states, %d inconsistencies"
                (List.length ws) points states (List.length failures) ]
            @ when_ok (failures = [])
                "WineFS recovered to a consistent state from every crash state.";
          ok = failures = [];
          json =
            ints [ ("workloads", List.length ws); ("crash_points", points); ("states", states) ]
            @ [ ("failures", strings failures) ];
        });
  }

(* Clean scenarios must stay silent across every explored schedule and
   planted-bug scenarios must be flagged, so a detector that goes blind
   fails as loudly as a discipline regression. *)
let racecheck =
  let scenarios = function
    | "" -> Scenarios.all
    | name -> (
        match Scenarios.find name with
        | Some s -> [ s ]
        | None ->
            usage "unknown scenario %S (have: %s)" name
              (String.concat ", " (List.map (fun s -> s.Race.sc_name) Scenarios.all)))
  in
  let base = Arg.(value & opt int 42 & info [ "base-seed" ] ~doc:"Seed deriving the schedules") in
  let replay =
    Arg.(value & opt (some int) None & info [ "seed" ] ~doc:"Replay the schedule this seed picks")
  in
  let only = Arg.(value & opt string "" & info [ "scenario" ] ~doc:"Run only the named scenario") in
  {
    name = "racecheck";
    doc = "Data-race detector over the concurrency scenario suite";
    args =
      Term.(
        const (fun schedules base replay only -> (scenarios only, schedules, base, replay))
        $ int_arg ~min:0 "schedules" 50 "Seeded schedules to explore per scenario"
        $ base $ replay $ only);
    header =
      (fun (scs, schedules, base, replay) ->
        match replay with
        | Some s -> sprintf "pmcheck racecheck: replaying schedule seed %d" s
        | None ->
            sprintf "pmcheck racecheck: %d scenarios x %d schedules (base seed %d)"
              (List.length scs) schedules base);
    run =
      (fun (scs, schedules, base, replay) ->
        Sched.Lock_order.reset ();
        let check sc =
          let races, explored =
            match replay with
            | Some seed -> (Race.check ~seed sc, 1)
            | None ->
                let o = Race.explore ~schedules ~seed:base sc in
                (o.o_races, o.o_schedules)
          in
          let racy = List.exists (fun r -> r.Race.sc_name = sc.Race.sc_name) Scenarios.racy in
          (sc.Race.sc_name, racy, races, explored, if racy then races <> [] else races = [])
        in
        let outcomes = List.map check scs in
        (* The recorder accumulated every acquisition across all explored
           schedules; a cycle in that union is a potential ABBA deadlock
           even though no single schedule deadlocked. *)
        let cycle = Sched.Lock_order.cycle () in
        let failures =
          List.length (List.filter (fun (_, _, _, _, ok) -> not ok) outcomes)
          + if cycle = None then 0 else 1
        in
        let row (name, racy, races, explored, ok) =
          sprintf "  %-16s %-8s %d race(s) over %d schedule(s)%s" name
            (if racy then "[racy]" else "[clean]")
            (List.length races) explored
            (if ok then "" else "  <-- UNEXPECTED")
        in
        let lock_order =
          match cycle with
          | Some labels ->
              sprintf "  lock-order: observed acquired-before cycle {%s}  <-- UNEXPECTED"
                (String.concat ", " labels)
          | None ->
              sprintf "  lock-order: %d acquisition(s), %d distinct edge(s), acyclic"
                (Sched.Lock_order.acquisitions ())
                (List.length (Sched.Lock_order.edges ()))
        in
        let races (name, _, races, _, _) =
          List.map (fun r -> sprintf "  %-16s %s" name (Race.race_to_string r)) races
        in
        let to_json (name, racy, races, explored, ok) =
          Json.[ ("scenario", String name); ("racy", Bool racy); ("schedules", Int explored);
                 ("ok", Bool ok); ("races", strings (List.map Race.race_to_string races)) ]
        in
        {
          lines = List.map row outcomes @ [ lock_order ];
          findings = List.concat_map races outcomes;
          summary =
            [ (if failures = 0 then "racecheck: all scenarios behaved as expected."
               else sprintf "racecheck: %d check(s) misbehaved." failures) ];
          ok = failures = 0;
          json =
            [ ("scenarios", objs to_json outcomes);
              ("lock_order_cycle", strings (Option.value ~default:[] cycle));
              ("failures", Json.Int failures) ];
        });
  }

let faultcheck =
  let finding_json (f : Faultcheck.finding) =
    Json.[ ("workload", String f.f_workload); ("scenario", String f.f_scenario);
           ("fault", String f.f_fault); ("diagnosis", String f.f_diagnosis) ]
  in
  {
    name = "faultcheck";
    doc = "Media-fault campaign: verify faults are repaired or safely refused";
    args =
      Term.(
        const (fun seed workloads torn -> (seed, workloads, torn))
        $ seed_arg $ workloads_arg ~default:1
        $ int_arg ~min:0 "torn-fences" 4 "Torn-word crash points per workload (0 disables)");
    header =
      (fun (seed, workloads, torn) ->
        sprintf "pmcheck faultcheck: %d workloads, torn crashes at %d fences (seed %d)"
          (List.length workloads) torn seed);
    run =
      (fun (seed, workloads, torn_fences) ->
        let r = Faultcheck.run ~seed ~workloads ~torn_fences () in
        let ok = r.findings = [] in
        let finding (f : Faultcheck.finding) =
          sprintf "  FINDING %s/%s: %s\n      %s" f.f_workload f.f_scenario f.f_fault f.f_diagnosis
        in
        {
          lines = [];
          findings = List.map finding r.findings;
          summary =
            [ sprintf
                "faultcheck: %d scenarios, %d faults planted, %d repaired, %d refused, %d \
                 finding(s) (seed %d)"
                r.scenarios_run r.faults_planted r.repaired r.refused (List.length r.findings)
                r.seed;
              (if ok then
                 sprintf "Every planted fault was repaired or safely refused (replay: --seed %d)."
                   r.seed
               else sprintf "Silent or mishandled faults detected (replay: --seed %d)." r.seed) ];
          ok;
          json =
            ints
              [ ("seed", r.seed); ("scenarios", r.scenarios_run);
                ("faults_planted", r.faults_planted); ("repaired", r.repaired);
                ("refused", r.refused) ]
            @ [ ("findings", objs finding_json r.findings) ];
        });
  }

let fsckcheck =
  let outcome_json (o : Fsck_scenarios.outcome) =
    Json.[ ("scenario", String o.s_name); ("ok", Bool o.ok); ("detail", String o.detail) ]
  in
  let row (o : Fsck_scenarios.outcome) =
    sprintf "  %-18s %s  %s" o.s_name (if o.ok then "ok" else "FAIL") o.detail
  in
  {
    name = "fsckcheck";
    doc = "Planted-corruption scenarios: fsck must repair each exactly as intended";
    args = Term.const ();
    header =
      (fun () -> sprintf "pmcheck fsckcheck: %d planted-corruption scenarios" Fsck_scenarios.count);
    run =
      (fun () ->
        let outcomes = Fsck_scenarios.run () in
        let bad = List.filter (fun o -> not o.Fsck_scenarios.ok) outcomes in
        {
          lines = List.map row outcomes;
          findings = [];
          summary = when_ok (bad = []) "Every planted corruption was repaired as intended.";
          ok = bad = [];
          json =
            ints [ ("scenarios", List.length outcomes); ("failures", List.length bad) ]
            @ [ ("outcomes", objs outcome_json outcomes) ];
        });
  }

let torturecheck =
  let fault_rate =
    let check r =
      if r >= 0.0 && r <= 1.0 then r else usage "--fault-rate must be in [0,1] (got %g)" r
    in
    let doc = "Fraction of crash images that also get a media fault" in
    Term.(const check $ Arg.(value & opt float 0.5 & info [ "fault-rate" ] ~doc))
  in
  let failure_json (f : Torturecheck.failure) =
    Json.[ ("iteration", Int f.t_iter); ("workload", String f.t_workload);
           ("fence", Int f.t_fence); ("diagnosis", String f.t_diagnosis) ]
  in
  {
    name = "torturecheck";
    doc = "Crash-fsck-remount torture campaign: every wreck must repair to writable";
    args =
      Term.(
        const (fun seed iterations rate -> (seed, iterations, rate))
        $ seed_arg
        $ int_arg ~min:1 "iterations" 60 "Crash+fsck+remount iterations"
        $ fault_rate);
    header =
      (fun (seed, iterations, _) ->
        sprintf "pmcheck torturecheck: %d crash+fsck+remount iterations (seed %d)" iterations
          seed);
    run =
      (fun (seed, iterations, fault_rate) ->
        let r = Torturecheck.run ~seed ~iterations ~fault_rate () in
        let ok = r.failures = [] in
        let failure (f : Torturecheck.failure) =
          sprintf "  FAILURE it %d %s fence %d: %s" f.t_iter f.t_workload f.t_fence f.t_diagnosis
        in
        {
          lines = [];
          findings = List.map failure r.failures;
          summary =
            [ sprintf
                "torturecheck: %d iterations over %d workloads, %d crashes, %d faults planted, %d \
                 repairs, %d orphans reattached, %d failure(s) (seed %d)"
                r.iterations r.workloads r.crashes r.faults_planted r.repairs r.orphans
                (List.length r.failures) r.seed;
              (if ok then
                 sprintf
                   "Every crash image repaired to a writable, invariant-clean mount (replay: \
                    --seed %d)."
                   r.seed
               else sprintf "Unhealable crash images detected (replay: --seed %d)." r.seed) ];
          ok;
          json =
            ints
              [ ("seed", r.seed); ("iterations", r.iterations); ("workloads", r.workloads);
                ("crashes", r.crashes); ("faults_planted", r.faults_planted);
                ("repairs", r.repairs); ("orphans_reattached", r.orphans) ]
            @ [ ("failures", objs failure_json r.failures) ];
        });
  }

(* ------------------------------------------------------------------ *)

(* What a source campaign's dynamic probe adds to the report. *)
type probe = { note : string; rows : string list; diags : Lint_diag.t list; pjson : Json.t }

(* srccheck and flowcheck: the rules [only] selects (default all six)
   over the sources under ROOT... (default lib bin), cross-checked by a
   dynamic [probe].  A root that is missing or does not parse is a
   usage error. *)
let source_campaign ~name ~doc ?only ~probe_name ~probe_doc ~clean probe =
  let load roots no_probe =
    let roots = if roots = [] then [ "lib"; "bin" ] else roots in
    (match List.filter (fun r -> not (Sys.file_exists r)) roots with
    | [] -> ()
    | missing -> usage "%s: no such file or directory: %s" name (String.concat ", " missing));
    match Lint_source.load_roots roots with
    | files, [] -> (roots, files, no_probe)
    | _, parse -> usage "%s: %s" name (String.concat "\n" (List.map Lint_diag.to_string parse))
  in
  let roots =
    Arg.(value & pos_all string [] & info [] ~docv:"ROOT" ~doc:"Source roots (default lib bin)")
  in
  let no_probe = Arg.(value & flag & info [ "no-probe" ] ~doc:probe_doc) in
  let rule_ids = match only with Some ids -> ids | None -> List.map fst Lint.rules in
  {
    name;
    doc;
    args = Term.(const load $ roots $ no_probe);
    header =
      (fun (roots, files, _) ->
        sprintf "pmcheck %s: %d files under %s, rules: %s" name (List.length files)
          (String.concat " " roots) (String.concat ", " rule_ids));
    run =
      (fun (_, files, no_probe) ->
        let report = Lint.run ?only files ~parse:[] in
        let p =
          if no_probe then
            { note = "skipped"; rows = []; diags = []; pjson = Json.String "skipped" }
          else probe files
        in
        let ok = Lint.exit_code report = 0 && p.diags = [] in
        let count id =
          sprintf "  %-16s %d diagnostic(s)" id
            (List.length (List.filter (fun d -> d.Lint_diag.rule = id) report.diags))
        in
        let fields =
          match Lint.report_to_json report with Json.Obj f -> f | j -> [ ("report", j) ]
        in
        {
          lines = List.map (fun d -> "  " ^ Lint_diag.to_string d) (report.diags @ p.diags);
          findings = List.map count rule_ids @ p.rows;
          summary =
            sprintf "%s: %d diagnostic(s), %d suppressed, %s: %s" name
              (List.length report.diags + List.length p.diags)
              report.suppressed probe_name p.note
            :: when_ok ok clean;
          ok;
          json =
            fields
            @ [ ("probe", p.pjson);
                ("probe_diags", Json.List (List.map Lint_diag.to_json p.diags)) ];
        });
  }

(* All six rules, plus the scenario suite and a small basefs workload
   replayed under the lock-order recorder (static ⊇ observed). *)
let srccheck =
  source_campaign ~name:"srccheck"
    ~doc:"AST-based static analysis of the repository's own sources"
    ~probe_name:"dynamic probe" ~probe_doc:"Skip the dynamic lock-order probe (static rules only)"
    ~clean:"No layering, lock-order, persist-site or error-discipline violations."
    (fun files ->
      let p = Probe.run files in
      let edges = List.length p.observed_edges and cyclic = p.runtime_cycle <> None in
      {
        note =
          sprintf "%d acquisition(s), %d named edge(s), %s" p.acquisitions edges
            (if cyclic then "CYCLIC" else "acyclic");
        rows = [];
        diags = p.diags;
        pjson =
          Json.(
            Obj
              [ ("acquisitions", Int p.acquisitions); ("named_edges", Int edges);
                ("cyclic", Bool cyclic) ]);
      })

(* The persist-order and determinism dataflow rules, plus the paired
   crash-consistency scenarios: every dynamic sanitizer error must be
   statically subsumed, and the planted branch-only bug must stay
   dynamically invisible but statically caught. *)
let flowcheck =
  source_campaign ~name:"flowcheck"
    ~doc:"Flow-sensitive persist-order and determinism dataflow over the sources"
    ~only:Lint.flow_rules ~probe_name:"containment probe"
    ~probe_doc:"Skip the flow containment probe (static rules only)"
    ~clean:"No persist-order or determinism violations."
    (fun _ ->
      let f = Probe.run_flow () in
      let to_json (name, st, dyn) =
        Json.[ ("scenario", String name); ("static_flagged", Bool st); ("dynamic_error", Bool dyn) ]
      in
      {
        note =
          sprintf "%d scenario(s), static ⊇ dynamic %s" (List.length f.flow_scenarios)
            (if f.flow_diags = [] then "holds" else "VIOLATED");
        rows =
          List.map
            (fun (name, st, dyn) -> sprintf "  scenario %-24s static=%-5b dynamic=%b" name st dyn)
            f.flow_scenarios;
        diags = f.flow_diags;
        pjson = objs to_json f.flow_scenarios;
      })

let () =
  exit
    (Cmd.eval'
       (Cmd.group ~default:(exec lint) (Cmd.info lint.name ~doc:lint.doc)
          [ cmd crashcheck; cmd racecheck; cmd faultcheck; cmd fsckcheck; cmd torturecheck;
            cmd srccheck; cmd flowcheck ]))
