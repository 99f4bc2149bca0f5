(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (simulated time; see DESIGN.md for the per-experiment index)
   plus Bechamel wall-clock microbenchmarks of the substrate hot paths.

   Usage:
     bench/main.exe                 run every experiment at scale 1
     bench/main.exe fig1 fig3       run selected experiments
     bench/main.exe --scale 2 fig6  grow toward paper-scale parameters
     bench/main.exe --json DIR ...  also write BENCH_<name>.json per experiment
     bench/main.exe --json F.json E write one experiment's document to F.json
     bench/main.exe smoke           small end-to-end workload (stats families)
     bench/main.exe bechamel        substrate microbenchmarks (wall time) *)

open Repro_util
module Stats = Repro_stats.Stats
module Json = Repro_stats.Json

type runner = ?scale:int -> unit -> Table.t list

(* A small end-to-end WineFS workload that touches every instrumented
   layer — namespace ops, data journaling and CoW overwrites, allocator
   churn, fsync — so one cheap run populates op latencies, journal,
   allocator and file-system counters, and device flush/fence counts.
   Backs @bench-smoke. *)
let smoke_run ?(scale = 1) () =
  let dev =
    Repro_pmem.Device.create ~cost:Repro_pmem.Device.Cost.optane ~size:(96 * Units.mib) ()
  in
  let fs = Winefs.Fs.format dev (Repro_vfs.Types.config ~cpus:2 ~inodes_per_cpu:512 ()) in
  let cpu = Cpu.make ~id:0 () in
  Winefs.Fs.mkdir fs cpu "/d";
  let files = 24 * scale in
  for i = 1 to files do
    let p = Printf.sprintf "/d/f%d" i in
    let fd = Winefs.Fs.create fs cpu p in
    ignore (Winefs.Fs.pwrite fs cpu fd ~off:0 ~src:(String.make (8 * Units.kib) 'a'));
    (* Overwrite: exercises the hybrid data-atomicity paths. *)
    ignore (Winefs.Fs.pwrite fs cpu fd ~off:512 ~src:(String.make 4096 'b'));
    ignore (Winefs.Fs.pread fs cpu fd ~off:0 ~len:4096);
    Winefs.Fs.fsync fs cpu fd;
    Winefs.Fs.close fs cpu fd
  done;
  let fd = Winefs.Fs.create fs cpu "/d/big" in
  Winefs.Fs.fallocate fs cpu fd ~off:0 ~len:(8 * Units.mib);
  Winefs.Fs.ftruncate fs cpu fd (2 * Units.mib);
  Winefs.Fs.close fs cpu fd;
  Winefs.Fs.rename fs cpu ~old_path:"/d/f1" ~new_path:"/d/g1";
  Winefs.Fs.unlink fs cpu "/d/g1";
  ignore (Winefs.Fs.readdir fs cpu "/d");
  ignore (Winefs.Fs.stat fs cpu "/d/f2");
  let st = Winefs.Fs.statfs fs in
  let tbl = Table.create ~title:"smoke workload" ~columns:[ "metric"; "value" ] in
  Table.add_row tbl [ "files"; string_of_int files ];
  Table.add_row tbl [ "free_bytes"; string_of_int st.Repro_vfs.Types.free ];
  Table.add_row tbl [ "aligned_free_2m"; string_of_int st.Repro_vfs.Types.aligned_free_2m ];
  Table.add_row tbl [ "simulated_ns"; string_of_int (Simclock.now cpu.clock) ];
  [ tbl ]

let experiments : (string * string * runner) list =
  [
    ("fig1", "aged vs un-aged mmap write bandwidth", Repro_experiments.Fig1_aging_bandwidth.run);
    ("fig2", "2MB mmap+write anatomy; mmap vs syscall", Repro_experiments.Fig2_mmap_overhead.run);
    ("fig3", "free-space fragmentation under aging", Repro_experiments.Fig3_fragmentation.run);
    ("fig4", "TLB/LLC latency CDF, 2MB vs 4KB pages", Repro_experiments.Fig4_tlb_cdf.run);
    ("fig6", "aged read/write throughput (mmap + POSIX)", Repro_experiments.Fig6_throughput.run);
    ("fig7", "aged application throughput + Table 2 faults", Repro_experiments.Fig7_apps_aged.run);
    ("fig8", "P-ART lookup latency CDF", Repro_experiments.Fig8_part_cdf.run);
    ("fig9", "syscall applications (Filebench/pgbench/WiredTiger)", Repro_experiments.Fig9_syscall_apps.run);
    ("fig10", "metadata scalability vs threads", Repro_experiments.Fig10_scalability.run);
    ("table2", "page-fault counts (part of fig7 output)", Repro_experiments.Fig7_apps_aged.run);
    ("sec52", "crash-consistency campaign + recovery time", Repro_experiments.Sec52_crash_recovery.run);
    ("sec4", "defragmentation interference", Repro_experiments.Sec4_defrag_interference.run);
    ("ablations", "design-choice ablations (hugepages, hybrid atomicity, journals, NUMA)",
      Repro_experiments.Ablations.run);
    ("profiles", "aging-profile sensitivity (Agrawal vs Wang-HPC, Sec 4)",
      Repro_experiments.Sec4_profiles.run);
    ("sec57", "DRAM index footprint (Sec 5.7)", Repro_experiments.Sec57_resources.run);
    ("xattr", "alignment xattrs across rsync (Sec 3.6)", Repro_experiments.Sec36_xattr_rsync.run);
    ("smoke", "small end-to-end workload populating every stats family", smoke_run);
  ]

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks of substrate hot paths (real wall time).   *)

let substrate_tests () =
  let open Bechamel in
  [
    Test.make ~name:"ordmap-insert-1k"
      (Staged.stage (fun () ->
           let t = Repro_rbtree.Ordmap.Int_map.create () in
           for i = 1 to 1000 do
             Repro_rbtree.Ordmap.Int_map.insert t (i * 7919 mod 104729) i
           done));
    Test.make ~name:"extent-first-fit-512"
      (Staged.stage (fun () ->
           let t = Repro_rbtree.Extent_tree.create () in
           Repro_rbtree.Extent_tree.insert_free t ~off:0 ~len:(64 * Units.mib);
           for _ = 1 to 512 do
             ignore (Repro_rbtree.Extent_tree.alloc_first_fit t ~len:Units.base_page)
           done));
    Test.make ~name:"aligned-alloc-churn-256"
      (Staged.stage (fun () ->
           let a =
             Repro_alloc.Aligned_alloc.create ~cpus:2
               ~regions:[| (0, 32 * Units.mib); (32 * Units.mib, 32 * Units.mib) |]
           in
           for i = 1 to 256 do
             match
               Repro_alloc.Aligned_alloc.alloc a ~cpu:(i land 1) ~len:(12 * Units.kib)
                 ~prefer_aligned:false
             with
             | Some exts ->
                 if i land 3 = 0 then
                   List.iter
                     (fun (e : Repro_alloc.Aligned_alloc.extent) ->
                       Repro_alloc.Aligned_alloc.free a ~off:e.off ~len:e.len)
                     exts
             | None -> ()
           done));
    Test.make ~name:"undo-journal-txn-64"
      (Staged.stage (fun () ->
           let dev =
             Repro_pmem.Device.create ~cost:Repro_pmem.Device.Cost.free
               ~size:(4 * Units.mib) ()
           in
           let cpu = Cpu.make ~id:0 () in
           let counter = Repro_journal.Undo_journal.Txn_counter.create () in
           let j =
             Repro_journal.Undo_journal.format dev cpu counter ~off:0 ~entries:256
               ~copy_bytes:(256 * Units.kib)
           in
           for _ = 1 to 64 do
             let txn = Repro_journal.Undo_journal.begin_txn j cpu ~reserve:4 in
             Repro_journal.Undo_journal.log_range j cpu txn ~addr:Units.mib ~len:16;
             Repro_journal.Undo_journal.commit j cpu txn
           done));
    (* Flat substrate vs the structures it replaced: same operation mix on
       the open-addressing table and a stdlib Hashtbl, and on the
       sorted-run extent index and the reference rbtree version. *)
    Test.make ~name:"flat-table-churn-4k"
      (Staged.stage (fun () ->
           let t = Flat_table.create ~capacity:16 ~dummy:0 () in
           for i = 1 to 4096 do
             let k = i * 7919 mod 2048 in
             Flat_table.set t k i;
             if i land 3 = 0 then Flat_table.remove t ((k + 37) mod 2048);
             ignore (Flat_table.get t ((k * 31) mod 2048) ~default:0)
           done));
    Test.make ~name:"hashtbl-churn-4k"
      (Staged.stage (fun () ->
           let t : (int, int) Hashtbl.t = Hashtbl.create 16 in
           for i = 1 to 4096 do
             let k = i * 7919 mod 2048 in
             Hashtbl.replace t k i;
             if i land 3 = 0 then Hashtbl.remove t ((k + 37) mod 2048);
             ignore (Hashtbl.find_opt t ((k * 31) mod 2048))
           done));
    Test.make ~name:"flat-extent-mixed-512"
      (Staged.stage (fun () ->
           let t = Repro_rbtree.Extent_tree.create () in
           Repro_rbtree.Extent_tree.insert_free t ~off:0 ~len:(64 * Units.mib);
           for i = 1 to 512 do
             match Repro_rbtree.Extent_tree.alloc_best_fit t ~len:(Units.base_page * (1 + (i mod 7))) with
             | Some off when i land 3 = 0 ->
                 Repro_rbtree.Extent_tree.insert_free t ~off
                   ~len:(Units.base_page * (1 + (i mod 7)))
             | _ -> ()
           done));
    Test.make ~name:"ordmap-extent-mixed-512"
      (Staged.stage (fun () ->
           let t = Repro_oracle.Extent_tree_ref.create () in
           Repro_oracle.Extent_tree_ref.insert_free t ~off:0 ~len:(64 * Units.mib);
           for i = 1 to 512 do
             match
               Repro_oracle.Extent_tree_ref.alloc_best_fit t
                 ~len:(Units.base_page * (1 + (i mod 7)))
             with
             | Some off when i land 3 = 0 ->
                 Repro_oracle.Extent_tree_ref.insert_free t ~off
                   ~len:(Units.base_page * (1 + (i mod 7)))
             | _ -> ()
           done));
    Test.make ~name:"device-fence-dirty-1k"
      (Staged.stage (fun () ->
           let dev =
             Repro_pmem.Device.create ~cost:Repro_pmem.Device.Cost.free
               ~size:(4 * Units.mib) ()
           in
           let cpu = Cpu.make ~id:0 () in
           Repro_pmem.Device.set_tracking dev true;
           let cl = Units.cacheline in
           for i = 0 to 999 do
             Repro_pmem.Device.write_string dev cpu ~off:(i * cl) ~src:"d" ~src_off:0 ~len:1
           done;
           (* Many fences over a large pending set: O(flushed) sweeps. *)
           for f = 0 to 9 do
             Repro_pmem.Device.flush dev cpu ~off:(f * 16 * cl) ~len:(16 * cl);
             Repro_pmem.Device.fence dev cpu
           done));
    Test.make ~name:"lru-sets-access-4k"
      (Staged.stage (fun () ->
           let l = Repro_memsim.Lru_sets.create ~sets:16 ~ways:4 in
           for i = 1 to 4096 do
             ignore (Repro_memsim.Lru_sets.access l (i * 37))
           done));
    (* Streaming 64 KiB reads over a base-page mapping twice the LLC's
       size: 16 translations (mostly TLB misses with page walks) and
       1024 LLC lookups per run, all misses (a sequential scan of twice
       an LRU cache's capacity). *)
    (let module Vmem = Repro_memsim.Vmem in
     let len = 16 * Units.mib and stream = 64 * Units.kib in
     let dev = Repro_pmem.Device.create ~cost:Repro_pmem.Device.Cost.free ~size:len () in
     let vm = Vmem.create dev in
     let cpu = Cpu.make ~id:0 () in
     let r =
       Vmem.mmap vm ~len ~huge_ok:false
         ~backing:(fun _ ~file_off ~huge_ok:_ -> Vmem.Base file_off)
         ()
     in
     Vmem.prefault vm cpu r;
     let off = ref 0 in
     Test.make ~name:"vmem-stream-64k"
       (Staged.stage (fun () ->
            Vmem.read vm cpu r ~off:!off ~len:stream;
            off := (!off + stream) mod len)));
    Test.make ~name:"winefs-create-write-unlink-32"
      (Staged.stage (fun () ->
           let dev =
             Repro_pmem.Device.create ~cost:Repro_pmem.Device.Cost.free
               ~size:(48 * Units.mib) ()
           in
           let fs =
             Winefs.Fs.format dev (Repro_vfs.Types.config ~cpus:2 ~inodes_per_cpu:256 ())
           in
           let cpu = Cpu.make ~id:0 () in
           for i = 1 to 32 do
             let p = Printf.sprintf "/f%d" i in
             let fd = Winefs.Fs.create fs cpu p in
             ignore (Winefs.Fs.pwrite fs cpu fd ~off:0 ~src:(String.make 4096 'b'));
             Winefs.Fs.close fs cpu fd;
             Winefs.Fs.unlink fs cpu p
           done));
  ]

let bechamel_benches () =
  let open Bechamel in
  let open Toolkit in
  Printf.printf "== Bechamel microbenchmarks (wall time per run) ==\n%!";
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let raw =
    Benchmark.all cfg
      Instance.[ monotonic_clock ]
      (Test.make_grouped ~name:"substrate" (substrate_tests ()))
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name est acc -> (name, est) :: acc) results [] in
  List.iter
    (fun (name, est) ->
      match Analyze.OLS.estimates est with
      | Some [ t ] -> Printf.printf "  %-40s %12.0f ns/run\n%!" name t
      | _ -> Printf.printf "  %-40s (no estimate)\n%!" name)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* Machine-readable output (--json)                                    *)

let table_json t =
  Json.Obj
    [
      ("title", Json.String (Table.title t));
      ("columns", Json.List (List.map (fun c -> Json.String c) (Table.columns t)));
      ( "rows",
        Json.List
          (List.map
             (fun r -> Json.List (List.map (fun c -> Json.String c) r))
             (Table.rows t)) );
    ]

(* One experiment run: its tables, the stats it left and the wall time
   it took.  Experiments that share a runner (fig7 and table2) share one
   run. *)
type outcome = { tables : Table.t list; stats : Json.t; makespan_ns : int; wall_s : float }

let bench_doc ~figure ~scale o =
  Json.Obj
    [
      ("schema", Json.String "winefs-bench/1");
      ("figure", Json.String figure);
      ("scale", Json.Int scale);
      ("wall_s", Json.Float o.wall_s);
      ("tables", Json.List (List.map table_json o.tables));
      ("stats", o.stats);
      ("makespan_ns", Json.Int o.makespan_ns);
    ]

let write_file path doc =
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "(wrote %s)\n%!" path

(* ------------------------------------------------------------------ *)

let usage_and_exit () =
  Printf.eprintf
    "usage: main.exe [--scale N] [--json PATH] [EXPERIMENT...]\n\
     \  --scale N     grow workload sizes toward paper scale (positive integer)\n\
     \  --json PATH   PATH ending in .json: write the single selected experiment's\n\
     \                document there; otherwise treat PATH as a directory and write\n\
     \                one BENCH_<name>.json per experiment\n\
     \  experiments: %s\n\
     \  'bechamel' runs the wall-clock substrate microbenchmarks\n"
    (String.concat ", " (List.map (fun (n, _, _) -> n) experiments));
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let scale = ref 1 in
  let json_path = ref None in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--scale" :: n :: rest -> (
        match int_of_string_opt n with
        | Some v when v >= 1 ->
            scale := v;
            parse acc rest
        | _ ->
            Printf.eprintf "main.exe: invalid --scale value %S (expected a positive integer)\n" n;
            usage_and_exit ())
    | [ "--scale" ] ->
        Printf.eprintf "main.exe: --scale requires a value\n";
        usage_and_exit ()
    | "--json" :: p :: rest ->
        json_path := Some p;
        parse acc rest
    | [ "--json" ] ->
        Printf.eprintf "main.exe: --json requires a path\n";
        usage_and_exit ()
    | a :: _ when String.length a > 0 && a.[0] = '-' ->
        Printf.eprintf "main.exe: unknown flag %S\n" a;
        usage_and_exit ()
    | a :: rest -> parse (a :: acc) rest
  in
  let selected = parse [] args in
  let run_bechamel = List.mem "bechamel" selected in
  let selected = List.filter (fun s -> s <> "bechamel") selected in
  let to_run =
    if selected = [] && not run_bechamel then experiments
    else
      List.filter_map
        (fun name ->
          match List.find_opt (fun (n, _, _) -> n = name) experiments with
          | Some e -> Some e
          | None ->
              Printf.eprintf "main.exe: unknown experiment %S (known: %s)\n" name
                (String.concat ", " (List.map (fun (n, _, _) -> n) experiments));
              usage_and_exit ())
        selected
  in
  let json_single =
    match !json_path with
    | Some p when Filename.check_suffix p ".json" ->
        if List.length to_run <> 1 then begin
          Printf.eprintf
            "main.exe: --json %s names a single file; select exactly one experiment\n" p;
          usage_and_exit ()
        end;
        true
    | Some p ->
        if not (Sys.file_exists p) then Unix.mkdir p 0o755
        else if not (Sys.is_directory p) then begin
          Printf.eprintf "main.exe: --json %s exists and is not a directory\n" p;
          usage_and_exit ()
        end;
        false
    | None -> false
  in
  let seen = Hashtbl.create 8 in
  let runs = ref [] in
  Printf.printf "WineFS reproduction benchmark harness (scale %d)\n" !scale;
  Printf.printf "Simulated-time results; shapes, not absolute numbers, are the target.\n\n%!";
  List.iter
    (fun (name, descr, (run : runner)) ->
      if not (Hashtbl.mem seen descr) then begin
        Hashtbl.replace seen descr ();
        Printf.printf "### %s — %s\n%!" name descr;
        let o =
          match List.assq_opt run !runs with
          | Some (first, o) ->
              List.iter Table.print o.tables;
              Printf.printf "(%s shares %s's run)\n\n%!" name first;
              o
          | None ->
              Stats.reset ();
              Stats.set_enabled true;
              let t0 = Unix.gettimeofday () in
              let tables = run ~scale:!scale () in
              let wall_s = Unix.gettimeofday () -. t0 in
              Stats.set_enabled false;
              let o =
                {
                  tables;
                  stats = Stats.to_json ();
                  makespan_ns = Stats.Registry.makespan_ns Stats.global;
                  wall_s;
                }
              in
              runs := (run, (name, o)) :: !runs;
              List.iter Table.print tables;
              Printf.printf "(%s took %.1fs wall)\n\n%!" name wall_s;
              o
        in
        match !json_path with
        | None -> ()
        | Some p ->
            let doc = bench_doc ~figure:name ~scale:!scale o in
            let path = if json_single then p else Filename.concat p ("BENCH_" ^ name ^ ".json") in
            write_file path doc
      end)
    to_run;
  if run_bechamel || (selected = [] && not run_bechamel) then bechamel_benches ()
