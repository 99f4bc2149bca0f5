(* [main.exe compare --base A1.json ... --change B1.json ...]: per
   workload and metric, each side's median and quartiles, and a verdict
   against the bound BENCHMARK.json fixes for the metric:

   - better: every change run beats every base run, or the change wins at
     least nine tenths of the run pairs and the medians differ by more
     than the base runs' interquartile range;
   - unresolved: either side's spread (IQR / median) exceeds the bound;
   - worse: the change median is worse than the base median by more than
     the bound;
   - within bound: otherwise.

   Metrics without a bound (per-layer ones) get the change and no
   verdict.  Inputs are the --out documents of [run]/[trace]: one run, or
   {"runs": [...]} for a multi-workload run. *)

module Json = Repro_stats.Json

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline s;
      exit 2)
    fmt

let load path =
  let text =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error e -> fail "%s" e
  in
  match Json.of_string text with
  | Error e -> fail "%s: %s" path e
  | Ok doc -> (
      match Json.member "runs" doc with Some (Json.List runs) -> runs | _ -> [ doc ])

let num = function Json.Int i -> Some (float_of_int i) | Json.Float f -> Some f | _ -> None

(* (workload, metric, value) of one run document. *)
let values doc =
  let workload =
    match Json.member "workload" doc with Some (Json.String w) -> w | _ -> "?"
  in
  match Json.member "metrics" doc with
  | Some (Json.Obj ms) ->
      List.filter_map
        (fun (name, v) ->
          Option.bind (Json.member "value" v) num |> Option.map (fun x -> (workload, name, x)))
        ms
  | _ -> []

(* Python's statistics.quantiles(data, n=4) (exclusive method). *)
let quartiles l =
  let a = Array.of_list (List.sort Float.compare l) in
  let n = Array.length a in
  if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

(* (bound, lower_is_better) per end-to-end metric. *)
let bounds path =
  let doc = List.hd (load path) in
  match Json.member "end_to_end" doc with
  | Some (Json.List ms) ->
      List.filter_map
        (fun mdoc ->
          match (Json.member "name" mdoc, Json.member "bound" mdoc, Json.member "better" mdoc) with
          | Some (Json.String n), Some b, Some (Json.String better) ->
              Option.map (fun b -> (n, (b, better = "lower"))) (num b)
          | _ -> None)
        ms
  | _ -> fail "%s: no end_to_end list" path

let verdict ~bound ~lower base change =
  let better a b = if lower then a < b else a > b in
  let q1b, mb, q3b = quartiles base and q1c, mc, q3c = quartiles change in
  let spread q1 q3 m = if m = 0. then 0. else (q3 -. q1) /. Float.abs m in
  let worse_frac =
    if mb = 0. then 0. else (if lower then mc -. mb else mb -. mc) /. Float.abs mb
  in
  let rec zip a b = match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> [] in
  let pairs = zip base change in
  let wins = List.length (List.filter (fun (b, c) -> better c b) pairs) in
  if List.for_all (fun c -> List.for_all (fun b -> better c b) base) change then "better"
  else if spread q1b q3b mb > bound || spread q1c q3c mc > bound then "unresolved"
  else if worse_frac > bound then "worse"
  else if
    10 * wins >= 9 * List.length pairs && better mc mb && Float.abs (mc -. mb) > q3b -. q1b
  then "better"
  else "within bound"

let main args =
  let rec go side base change bench = function
    | [] -> (List.rev base, List.rev change, bench)
    | "--base" :: rest -> go `Base base change bench rest
    | "--change" :: rest -> go `Change base change bench rest
    | "--bench" :: p :: rest -> go side base change p rest
    | f :: rest -> (
        match side with
        | `Base -> go side (f :: base) change bench rest
        | `Change -> go side base (f :: change) bench rest
        | `None -> fail "compare: %S outside --base/--change" f)
  in
  let base, change, bench = go `None [] [] "BENCHMARK.json" args in
  if base = [] || change = [] then fail "compare: need --base and --change files";
  let bounds = bounds bench in
  let collect files = List.concat_map (fun f -> List.concat_map values (load f)) files in
  let b = collect base and c = collect change in
  let keys =
    List.sort_uniq compare (List.map (fun (w, n, _) -> (w, n)) b)
    |> List.filter (fun (w, n) -> List.exists (fun (w', n', _) -> w = w' && n = n') c)
  in
  let pick l (w, n) =
    List.filter_map (fun (w', n', v) -> if w = w' && n = n' then Some v else None) l
  in
  Printf.printf "%-8s %-34s %-36s %-36s %9s  %s\n" "workload" "metric" "base median [q1, q3]"
    "change median [q1, q3]" "change" "verdict";
  List.iter
    (fun ((w, n) as k) ->
      let bv = pick b k and cv = pick c k in
      let q1b, mb, q3b = quartiles bv and q1c, mc, q3c = quartiles cv in
      let v =
        match List.assoc_opt n bounds with
        | Some (bound, lower) -> verdict ~bound ~lower bv cv
        | None -> "-"
      in
      let cell q1 m q3 = Printf.sprintf "%.6g [%.6g, %.6g]" m q1 q3 in
      Printf.printf "%-8s %-34s %-36s %-36s %+8.2f%%  %s\n" w n (cell q1b mb q3b) (cell q1c mc q3c)
        (if mb = 0. then 0. else 100. *. (mc -. mb) /. Float.abs mb)
        v)
    keys
