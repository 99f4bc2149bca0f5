(* Validates a BENCH_*.json artifact from main.exe --json: strict parse,
   then a shape check of everything the harness promises — per-op latency
   percentiles, journal, allocator and file-system counters, device
   flush/fence counts.
   Exit 0 and print "ok" on success; exit 1 with a message otherwise.
   Backs the @bench-smoke alias. *)

module Json = Repro_stats.Json

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* The stats document renders counters/gauges/histograms as lists of
   objects with a "name" member. *)
let instruments doc section =
  match Json.member section doc with
  | Some (Json.List l) ->
      List.filter_map
        (fun item ->
          match Json.member "name" item with Some (Json.String n) -> Some (n, item) | _ -> None)
        l
  | _ -> fail "stats.%s missing or not a list" section

let has_prefix p (name, _) =
  String.length name >= String.length p && String.sub name 0 (String.length p) = p

let () =
  if Array.length Sys.argv <> 2 then fail "usage: validate_json.exe BENCH.json";
  let path = Sys.argv.(1) in
  let doc =
    match Json.of_string (read_file path) with
    | Ok d -> d
    | Error e -> fail "%s: invalid JSON: %s" path e
  in
  (match Json.member "schema" doc with
  | Some (Json.String "winefs-bench/1") -> ()
  | _ -> fail "%s: missing or unexpected schema" path);
  (match Json.member "figure" doc with
  | Some (Json.String _) -> ()
  | _ -> fail "%s: missing figure" path);
  (match Option.bind (Json.member "scale" doc) Json.to_int with
  | Some s when s >= 1 -> ()
  | _ -> fail "%s: missing or non-positive scale" path);
  (match Json.member "tables" doc with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> fail "%s: missing or empty tables" path);
  (match Option.bind (Json.member "makespan_ns" doc) Json.to_int with
  | Some m when m > 0 -> ()
  | _ -> fail "%s: missing or zero makespan_ns" path);
  let stats = match Json.member "stats" doc with Some s -> s | None -> fail "%s: missing stats" path in
  let counters = instruments stats "counters" in
  let gauges = instruments stats "gauges" in
  let hists = instruments stats "histograms" in
  if not (List.exists (has_prefix "journal.") counters) then
    fail "%s: no journal.* counters" path;
  if not (List.exists (has_prefix "alloc.") (counters @ gauges)) then
    fail "%s: no alloc.* instruments" path;
  if not (List.exists (has_prefix "fs.") counters) then fail "%s: no fs.* counters" path;
  if not (List.exists (has_prefix "pm.fences") counters) then fail "%s: no pm.fences counter" path;
  if not (List.exists (has_prefix "pm.flush") counters) then fail "%s: no pm.flush counter" path;
  if not (List.exists (has_prefix "op.latency_ns") hists) then
    fail "%s: no per-op latency histograms" path;
  List.iter
    (fun (name, h) ->
      List.iter
        (fun field ->
          match Option.bind (Json.member field h) Json.to_int with
          | Some _ -> ()
          | None -> fail "%s: histogram %S lacks %s" path name field)
        [ "count"; "p50"; "p90"; "p99"; "p999" ])
    hists;
  print_endline "ok"
