open Repro_util

type labels = (string * string) list

let canon_labels labels = List.sort (fun (a, _) (b, _) -> String.compare a b) labels

(* Instrument identity: name plus canonical label rendering. *)
let key_of ~name ~labels =
  match labels with
  | [] -> name
  | l ->
      name ^ "{"
      ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) (canon_labels l))
      ^ "}"

type instrument =
  | I_counter of int ref
  | I_gauge of int ref
  | I_hist of Histogram.t

type frame = { f_op : string; f_start : int; mutable f_child_ns : int }

module Registry = struct
  type t = {
    instruments : (string, string * labels * instrument) Hashtbl.t;
    spans : (int, frame list ref) Hashtbl.t; (* cpu id -> span stack *)
    mutable makespan_ns : int;
    mutable generation : int;
        (* bumped on [reset]: instrument handles resolved before a reset
           point into dropped refs, so caches key on the generation *)
  }

  let create () =
    { instruments = Hashtbl.create 64; spans = Hashtbl.create 8; makespan_ns = 0; generation = 0 }

  let reset t =
    Hashtbl.reset t.instruments;
    Hashtbl.reset t.spans;
    t.makespan_ns <- 0;
    t.generation <- t.generation + 1

  let generation t = t.generation

  let makespan_ns t = t.makespan_ns

  let find t ~name ~labels ~make =
    let key = key_of ~name ~labels in
    match Hashtbl.find_opt t.instruments key with
    | Some (_, _, i) -> i
    | None ->
        let i = make () in
        Hashtbl.add t.instruments key (name, canon_labels labels, i);
        i
end

let global = Registry.create ()

let enabled_flag = ref false
let set_enabled v = enabled_flag := v
let enabled () = !enabled_flag
let reset () = Registry.reset global

let mismatch name = invalid_arg (Printf.sprintf "Stats: %s registered with another type" name)

module Counter = struct
  type t = int ref

  let v ?(registry = global) ?(labels = []) name =
    match Registry.find registry ~name ~labels ~make:(fun () -> I_counter (ref 0)) with
    | I_counter r -> r
    | _ -> mismatch name

  let incr t = Stdlib.incr t
  let add t n = t := !t + n
  let get t = !t
end

module Gauge = struct
  type t = int ref

  let v ?(registry = global) ?(labels = []) name =
    match Registry.find registry ~name ~labels ~make:(fun () -> I_gauge (ref 0)) with
    | I_gauge r -> r
    | _ -> mismatch name

  let set t n = t := n
  let add t n = t := !t + n
  let get t = !t
end

module Hist = struct
  type t = Histogram.t

  (* Registry histograms are bucketed (not exact): bench runs observe
     millions of latencies and the registry must stay bounded. *)
  let v ?(registry = global) ?(labels = []) name =
    match
      Registry.find registry ~name ~labels ~make:(fun () ->
          I_hist (Histogram.create ~exact:false ()))
    with
    | I_hist h -> h
    | _ -> mismatch name

  let observe t v = Histogram.add t v
  let count t = Histogram.count t
  let percentile t p = Histogram.percentile t p
end

let counter_add ?(registry = global) ?(labels = []) name n =
  Counter.add (Counter.v ~registry ~labels name) n

let count name n = if !enabled_flag then counter_add name n

let gauge_set ?(registry = global) ?(labels = []) name n =
  Gauge.set (Gauge.v ~registry ~labels name) n

let observe ?(registry = global) ?(labels = []) name v =
  Hist.observe (Hist.v ~registry ~labels name) v

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

let span_stack (registry : Registry.t) (cpu : Cpu.t) =
  match Hashtbl.find_opt registry.spans cpu.id with
  | Some s -> s
  | None ->
      let s = ref [] in
      Hashtbl.add registry.spans cpu.id s;
      s

let span ?(registry = global) ~op (cpu : Cpu.t) f =
  if registry == global && not !enabled_flag then f ()
  else begin
    let stack = span_stack registry cpu in
    let fr = { f_op = op; f_start = Simclock.now cpu.clock; f_child_ns = 0 } in
    stack := fr :: !stack;
    let finish () =
      let now = Simclock.now cpu.clock in
      let elapsed = max 0 (now - fr.f_start) in
      (stack :=
         match !stack with
         | _ :: rest -> rest
         | [] -> []);
      (match !stack with
      | parent :: _ -> parent.f_child_ns <- parent.f_child_ns + elapsed
      | [] -> ());
      let labels = [ ("op", op) ] in
      observe ~registry ~labels "op.latency_ns" elapsed;
      counter_add ~registry ~labels "op.count" 1;
      counter_add ~registry ~labels "op.total_ns" elapsed;
      counter_add ~registry ~labels "op.self_ns" (max 0 (elapsed - fr.f_child_ns));
      if now > registry.makespan_ns then registry.makespan_ns <- now
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* ------------------------------------------------------------------ *)
(* Export                                                              *)

type hist_summary = {
  h_count : int;
  h_mean : float;
  h_min : int;
  h_max : int;
  h_p50 : int;
  h_p90 : int;
  h_p99 : int;
  h_p999 : int;
}

type snapshot = {
  s_counters : (string * labels * int) list;
  s_gauges : (string * labels * int) list;
  s_hists : (string * labels * hist_summary) list;
  s_makespan_ns : int;
}

let summarize h =
  {
    h_count = Histogram.count h;
    h_mean = Histogram.mean h;
    h_min = Histogram.min_value h;
    h_max = Histogram.max_value h;
    h_p50 = Histogram.percentile h 50.;
    h_p90 = Histogram.percentile h 90.;
    h_p99 = Histogram.percentile h 99.;
    h_p999 = Histogram.percentile h 99.9;
  }

let snapshot ?(registry = global) () =
  let counters = ref [] and gauges = ref [] and hists = ref [] in
  Hashtbl.fold (fun key v acc -> (key, v) :: acc) registry.Registry.instruments []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (key, (name, labels, i)) ->
         match i with
         | I_counter r -> counters := (key, (name, labels, !r)) :: !counters
         | I_gauge r -> gauges := (key, (name, labels, !r)) :: !gauges
         | I_hist h -> hists := (key, (name, labels, summarize h)) :: !hists);
  let by_key l = List.sort (fun (a, _) (b, _) -> String.compare a b) l |> List.map snd in
  {
    s_counters = by_key !counters;
    s_gauges = by_key !gauges;
    s_hists = by_key !hists;
    s_makespan_ns = registry.makespan_ns;
  }

let labels_json labels = Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) labels)

let to_json ?(registry = global) () =
  let s = snapshot ~registry () in
  let scalar (name, labels, v) =
    Json.Obj [ ("name", Json.String name); ("labels", labels_json labels); ("value", Json.Int v) ]
  in
  let hist (name, labels, h) =
    Json.Obj
      [
        ("name", Json.String name);
        ("labels", labels_json labels);
        ("count", Json.Int h.h_count);
        ("mean", Json.Float h.h_mean);
        ("min", Json.Int h.h_min);
        ("max", Json.Int h.h_max);
        ("p50", Json.Int h.h_p50);
        ("p90", Json.Int h.h_p90);
        ("p99", Json.Int h.h_p99);
        ("p999", Json.Int h.h_p999);
      ]
  in
  Json.Obj
    [
      ("counters", Json.List (List.map scalar s.s_counters));
      ("gauges", Json.List (List.map scalar s.s_gauges));
      ("histograms", Json.List (List.map hist s.s_hists));
      ("makespan_ns", Json.Int s.s_makespan_ns);
    ]

let pp_labels ppf labels =
  if labels <> [] then
    Format.fprintf ppf "{%s}"
      (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels))

let pp ppf registry =
  let s = snapshot ~registry () in
  Format.fprintf ppf "== counters ==@.";
  List.iter
    (fun (name, labels, v) -> Format.fprintf ppf "  %s%a = %d@." name pp_labels labels v)
    s.s_counters;
  Format.fprintf ppf "== gauges ==@.";
  List.iter
    (fun (name, labels, v) -> Format.fprintf ppf "  %s%a = %d@." name pp_labels labels v)
    s.s_gauges;
  Format.fprintf ppf "== histograms ==@.";
  List.iter
    (fun (name, labels, h) ->
      if h.h_count = 0 then Format.fprintf ppf "  %s%a (empty)@." name pp_labels labels
      else
        Format.fprintf ppf "  %s%a n=%d mean=%.0f p50=%d p90=%d p99=%d max=%d@." name
          pp_labels labels h.h_count h.h_mean h.h_p50 h.h_p90 h.h_p99 h.h_max)
    s.s_hists;
  Format.fprintf ppf "makespan_ns = %d@." s.s_makespan_ns
