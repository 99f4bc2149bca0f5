(* The repository benchmark: four workloads on both clocks.

   Usage:
     main.exe run [--workload W] [--seed N] [--seconds S] [--trace 0|1]
                  [--quick] [--out FILE]
     main.exe trace [same options]      (run --trace 1)
     main.exe compare --base A.json... --change B.json... [--bench BENCHMARK.json]

   [run] without --workload runs every workload, each in its own process
   (this executable started again), so heap growth and GC state do not
   carry over.  The last line of standard output is the result:
   {"correct", "attempted", "failed", "metrics"} — end-to-end metrics with
   tracing off, per-layer metrics with --trace 1.  Exit 0 when every
   check passed, 1 when one failed, 2 on a usage error. *)

module Json = Repro_stats.Json
module Stats = Repro_stats.Stats

let usage () =
  prerr_endline
    "usage: main.exe run|trace [--workload age|mmap|meta|crash] [--seed N] [--seconds S]\n\
    \                         [--trace 0|1] [--quick] [--out FILE]\n\
    \       main.exe compare --base A.json... --change B.json... [--bench BENCHMARK.json]";
  exit 2

type opts = {
  workload : Work.t option;
  seed : int;
  seconds : float option;
  trace : bool;
  quick : bool;
  out : string option;
}

let parse_run args ~trace =
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest -> (
        match List.find_opt (fun (x : Work.t) -> x.name = w) Work.all with
        | Some x -> go { o with workload = Some x } rest
        | None ->
            Printf.eprintf "unknown workload %S\n" w;
            usage ())
    | "--seed" :: s :: rest -> (
        match int_of_string_opt s with
        | Some n when n >= 0 -> go { o with seed = n } rest
        | _ ->
            Printf.eprintf "bad --seed %S\n" s;
            usage ())
    | "--seconds" :: s :: rest -> (
        match float_of_string_opt s with
        | Some x when x >= 0. && Float.is_finite x -> go { o with seconds = Some x } rest
        | _ ->
            Printf.eprintf "bad --seconds %S\n" s;
            usage ())
    | "--trace" :: ("0" | "1" as t) :: rest -> go { o with trace = t = "1" } rest
    | "--quick" :: rest -> go { o with quick = true } rest
    | "--out" :: f :: rest when not (String.starts_with ~prefix:"--" f) ->
        go { o with out = Some f } rest
    | a :: _ ->
        Printf.eprintf "bad argument %S\n" a;
        usage ()
  in
  go
    { workload = None; seed = 1; seconds = None; trace; quick = false; out = None }
    args

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ---- one workload in this process ---- *)

let s_of ns = float_of_int ns /. 1e9

(* Set-up, several times: setup_s is the median.  Only the last instance
   is kept; the earlier ones are collected first (OCaml 5.1 frees a
   dropped large block only after a few major cycles, so one collection
   would let two set-ups overlap in the peak heap). *)
let set_up (w : Work.t) o =
  let reps = if o.quick then 1 else 5 in
  let inst = ref None and times = ref [] in
  (try
     for _ = 1 to reps do
       inst := None;
       for _ = 1 to 3 do
         Gc.full_major ()
       done;
       let t0 = Trace.now () in
       inst := Some (w.setup ~quick:o.quick ~seed:o.seed);
       times := s_of (Trace.now () - t0) :: !times
     done
   with e ->
     Printf.printf "FAILED: set-up raised %s\n" (Printexc.to_string e);
     print_endline {|{"correct":false,"attempted":1,"failed":1,"metrics":{}}|};
     exit 1);
  Gc.full_major ();
  (Option.get !inst, !times)

type timed = {
  rounds : int;
  work : float;
  rates : float list;  (** host work/s of each cycle *)
  elapsed_ns : int;
  window : Report.window option;  (** [None] when a round failed inside it *)
}

(* Rounds in a closed loop until [seconds] have passed, stopping at the
   end of a cycle and never inside the window.  Host throughput is kept
   per cycle: work_per_s is their median, so a burst of load from
   elsewhere on the machine moves it less than a mean would. *)
let timed_phase (w : Work.t) (inst : Work.instance) ~seconds =
  Work.attempted := 0;
  Work.failures := [];
  Report.open_window ();
  let t0 = Trace.now () in
  let budget = int_of_float (seconds *. 1e9) in
  let work = ref 0. and r = ref 0 and window = ref None in
  let rates = ref [] and cycle_t0 = ref t0 and cycle_work = ref 0. in
  (try
     while not (!r >= w.window && !r mod w.cycle = 0 && Trace.now () - t0 >= budget) do
       let done_ = inst.round ~window:(!r < w.window) !r in
       let t = Trace.now () in
       work := !work +. done_;
       cycle_work := !cycle_work +. done_;
       incr r;
       if !r mod w.cycle = 0 then begin
         rates := (!cycle_work /. s_of (t - !cycle_t0)) :: !rates;
         cycle_work := 0.
       end;
       if !r = w.window then window := Some (Report.close_window ~wall_ns:(t - t0));
       if !r mod w.cycle = 0 then cycle_t0 := Trace.now ()
     done
   with e -> Work.fail ("round " ^ string_of_int !r ^ " raised " ^ Printexc.to_string e));
  { rounds = !r; work = !work; rates = !rates; elapsed_ns = Trace.now () - t0; window = !window }

(* The traced run: the window's rounds untraced first, then the timed
   phase traced from round 0 again; the ratio of the two window times is
   the tracing overhead.  Returns the per-layer metrics and info fields. *)
let traced_phase (w : Work.t) (inst : Work.instance) ~seconds =
  let t0 = Trace.now () in
  for r = 0 to w.window - 1 do
    ignore (inst.round ~window:false r)
  done;
  let untraced = Trace.now () - t0 in
  Stats.set_enabled true;
  Trace.start ();
  let t = timed_phase w inst ~seconds in
  Trace.on := false;
  Stats.set_enabled false;
  match t.window with
  | None -> (t, [], [])
  | Some win ->
      let remainder = Report.remainder_ns win in
      if remainder < 0 then Work.fail "per-layer self host time exceeds the traced wall time";
      (try Sys.mkdir ".bench_out" 0o755 with Sys_error _ -> ());
      let path = Filename.concat ".bench_out" (w.name ^ ".trace.json") in
      let spans = Trace.write_chrome ~workload:w.name path in
      let overhead = (float_of_int win.wall_ns /. float_of_int (max 1 untraced)) -. 1. in
      Printf.printf "trace: %d spans to %s; overhead %.3f; window %.3f s, unattributed %.3f s\n"
        spans path overhead (s_of win.wall_ns) (s_of remainder);
      ( t,
        Report.per_layer win,
        [
          ("trace_overhead_frac", Json.Float overhead);
          ("window_wall_s", Json.Float (s_of win.wall_ns));
          ("unattributed_s", Json.Float (s_of remainder));
          ("trace_file", Json.String path);
          ("trace_spans", Json.Int spans);
        ] )

let run_one (w : Work.t) o =
  let seconds = Option.value o.seconds ~default:(if o.quick then 0. else 15.) in
  let inst, setup_s = set_up w o in
  let t, metrics, trace_info =
    if o.trace then traced_phase w inst ~seconds
    else
      let t = timed_phase w inst ~seconds in
      let top_heap_words =
        match t.window with
        | Some win -> win.Report.gc.Gc.top_heap_words
        | None -> (Gc.quick_stat ()).Gc.top_heap_words
      in
      (t, Report.end_to_end ~setup_s ~rates:t.rates ~top_heap_words, [])
  in
  let info =
    if t.window = None then []
    else
      try inst.finish ()
      with e ->
        Work.fail ("oracle raised " ^ Printexc.to_string e);
        []
  in
  let failures = List.rev !Work.failures in
  let failed = List.length failures in
  let correct = failed = 0 in
  List.iter (fun f -> Printf.printf "FAILED: %s\n" f) failures;
  Printf.printf "%s seed %d: %d rounds in %.2f s (%s), %d sim samples%s\n" w.name o.seed t.rounds
    (s_of t.elapsed_ns) w.work_unit
    (Repro_util.Histogram.count !Work.sim_lat)
    (String.concat ""
       (List.map
          (fun (k, v) -> Printf.sprintf ", %s %s" k (Json.to_string ~indent:false v))
          info));
  List.iter
    (fun (x : Report.metric) -> Printf.printf "  %-34s %18.6g %s\n" x.name x.value x.unit)
    metrics;
  let result =
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Int (max 1 (max failed !Work.attempted)));
      ("failed", Json.Int failed);
      ("metrics", Report.to_json metrics);
    ]
  in
  Option.iter
    (fun path ->
      let info =
        [
          ("rounds", Json.Int t.rounds);
          ("cycles", Json.Int (List.length t.rates));
          ("elapsed_s", Json.Float (s_of t.elapsed_ns));
          ("work", Json.Float t.work);
          ("work_unit", Json.String w.work_unit);
          ("sim_samples", Json.Int (Repro_util.Histogram.count !Work.sim_lat));
          ("setup_s_all", Json.List (List.map (fun x -> Json.Float x) setup_s));
          ("failures", Json.List (List.map (fun f -> Json.String f) failures));
        ]
        @ info @ trace_info
      in
      write_file path
        (Json.to_string
           (Json.Obj
              ([ ("workload", Json.String w.name); ("seed", Json.Int o.seed); ("trace", Json.Bool o.trace) ]
              @ result
              @ [ ("info", Json.Obj info) ]))))
    o.out;
  print_endline (Json.to_string ~indent:false (Json.Obj result));
  exit (if correct then 0 else 1)

(* ---- every workload, one child process each ---- *)

let run_all o args =
  let code = ref 0 and docs = ref [] in
  List.iter
    (fun (w : Work.t) ->
      let child_out = Option.map (fun p -> p ^ "." ^ w.name) o.out in
      let argv =
        [ Sys.executable_name; "run"; "--workload"; w.name ]
        @ (match child_out with Some p -> [ "--out"; p ] | None -> [])
        @ args
      in
      let pid =
        Unix.create_process Sys.executable_name (Array.of_list argv) Unix.stdin Unix.stdout
          Unix.stderr
      in
      let c = match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> 1 in
      if c <> 0 then code := max !code c;
      Option.iter
        (fun p ->
          if Sys.file_exists p then begin
            (match Json.of_string (read_file p) with
            | Ok d -> docs := d :: !docs
            | Error e -> Printf.eprintf "%s: %s\n" p e);
            Sys.remove p
          end)
        child_out)
    Work.all;
  Option.iter
    (fun p -> write_file p (Json.to_string (Json.Obj [ ("runs", Json.List (List.rev !docs)) ])))
    o.out;
  exit !code

let () =
  match Array.to_list Sys.argv with
  | _ :: (("run" | "trace") as cmd) :: args -> (
      let o = parse_run args ~trace:(cmd = "trace") in
      match o.workload with
      | Some w -> run_one w o
      | None ->
          (* Children get every option but --out, which this process
             assigns per workload. *)
          let rec strip = function
            | "--out" :: _ :: rest -> strip rest
            | x :: rest -> x :: strip rest
            | [] -> []
          in
          run_all o ((if o.trace then [ "--trace"; "1" ] else []) @ strip args))
  | _ :: "compare" :: args -> Compare.main args
  | _ -> usage ()
