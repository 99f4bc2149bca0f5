(* @benchmark-smoke: smoke.exe MAIN_EXE BENCHMARK_JSON

   Runs every workload in --quick form, untraced and traced, and checks:
   the results carry every metric BENCHMARK.json names with its unit and a
   finite value; the trace file parses; a second run with the same seed
   repeats the simulated metrics byte for byte and another seed changes
   age's; compare accepts the results; bad arguments exit 2. *)

module Json = Repro_stats.Json

let main_exe = Sys.argv.(1)
let bench = Sys.argv.(2)
let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL: %s\n%!" what
  end

let run args =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process main_exe (Array.of_list (main_exe :: args)) Unix.stdin null null
  in
  Unix.close null;
  match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> -1

let load path =
  match Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Ok d -> d
  | Error e -> failwith (path ^ ": " ^ e)

let list = function Some (Json.List l) -> l | _ -> []
let str = function Some (Json.String s) -> s | _ -> ""
let runs path =
  let d = load path in
  match Json.member "runs" d with Some (Json.List l) -> l | _ -> [ d ]

let run_of path w =
  List.find_opt (fun d -> str (Json.member "workload" d) = w) (runs path)

let declared key =
  List.map
    (fun m -> (str (Json.member "name" m), str (Json.member "unit" m)))
    (list (Json.member key (load bench)))

let metrics doc = match Json.member "metrics" doc with Some (Json.Obj l) -> l | _ -> []

let has_all ~what doc names =
  let ms = metrics doc in
  List.iter
    (fun (name, unit) ->
      match List.assoc_opt name ms with
      | None -> check (what ^ ": missing " ^ name) false
      | Some v ->
          check (what ^ ": unit of " ^ name) (str (Json.member "unit" v) = unit);
          let finite =
            match Json.member "value" v with
            | Some (Json.Float f) -> Float.is_finite f
            | Some (Json.Int _) -> true
            | _ -> false
          in
          check (what ^ ": finite " ^ name) finite)
    names

(* The simulated metrics of a run, rendered exactly as written. *)
let sims doc =
  List.filter_map
    (fun (n, v) ->
      if String.starts_with ~prefix:"sim_" n then Some (n, Json.to_string ~indent:false v)
      else None)
    (metrics doc)

let () =
  let workloads =
    List.map (fun w -> str (Json.member "name" w)) (list (Json.member "workloads" (load bench)))
  in
  check "run --quick exits 0" (run [ "run"; "--quick"; "--seed"; "1"; "--out"; "a.json" ] = 0);
  check "trace --quick exits 0" (run [ "trace"; "--quick"; "--seed"; "1"; "--out"; "t.json" ] = 0);
  check "second run exits 0" (run [ "run"; "--quick"; "--seed"; "1"; "--out"; "b.json" ] = 0);
  check "seed 2 exits 0"
    (run [ "run"; "--quick"; "--seed"; "2"; "--workload"; "age"; "--out"; "c.json" ] = 0);
  List.iter
    (fun w ->
      match (run_of "a.json" w, run_of "t.json" w, run_of "b.json" w) with
      | Some a, Some t, Some b ->
          has_all ~what:("run " ^ w) a (declared "end_to_end");
          has_all ~what:("trace " ^ w) t (declared "per_layer");
          check (w ^ ": correct") (Json.member "correct" a = Some (Json.Bool true));
          check (w ^ ": simulated metrics repeat for one seed") (sims a = sims b && sims a <> []);
          let info = Option.value ~default:Json.Null (Json.member "info" t) in
          (match Json.member "trace_overhead_frac" info with
          | Some (Json.Float f) -> check (w ^ ": trace_overhead_frac finite") (Float.is_finite f)
          | _ -> check (w ^ ": trace_overhead_frac reported") false);
          let events = Json.member "traceEvents" (load (str (Json.member "trace_file" info))) in
          check (w ^ ": trace file has spans") (list events <> [])
      | _ -> check (w ^ ": result present in every run") false)
    workloads;
  (match (run_of "a.json" "age", List.hd (runs "c.json")) with
  | Some a, c -> check "another seed changes age's simulated metrics" (sims a <> sims c)
  | None, _ -> check "age result present" false);
  check "compare exits 0"
    (run [ "compare"; "--base"; "a.json"; "--change"; "b.json"; "--bench"; bench ] = 0);
  check "unknown workload exits 2" (run [ "run"; "--workload"; "bogus" ] = 2);
  check "bad --seed exits 2" (run [ "run"; "--seed"; "x" ] = 2);
  check "missing --out exits 2" (run [ "run"; "--quick"; "--out" ] = 2);
  if !failures > 0 then exit 1;
  print_endline "benchmark-smoke: ok"
