(* Host-clock spans recorded from outside the program.

   The benchmark opens a span around each call it makes into a layer (FS
   calls through [Timed], Vmem calls, fault callbacks, the ager, the crash
   campaigns, Sched runs).  Nothing here runs unless [on] is set: the
   untraced run reads no clock on the hot path.

   Self time is exclusive: every interval between two consecutive span
   events is charged to the innermost open span of the fiber that is
   running at the later event (a fiber with nothing open charges the
   innermost span of the main fiber, i.e. the [Sched.run] that started
   it).  The charges partition the traced interval, so the self times of
   all spans plus [unattributed] add up to the wall time exactly.  When a
   Sched fiber switches inside an FS call the interval around the switch
   is split between two spans only approximately; the sum stays exact. *)

module Sched = Repro_sched.Sched
module Json = Repro_stats.Json

let on = ref false
let now () = Int64.to_int (Monotonic_clock.now ())

(* ---- span kinds: one per (layer, name), so aggregation is indexing ---- *)

let kind_layer = ref [||]
let kind_name = ref [||]
let count = ref [||]
let total_ns = ref [||]
let self_ns = ref [||]

let kind ~layer name =
  let n = Array.length !kind_name in
  let grow a v = Array.append a [| v |] in
  kind_layer := grow !kind_layer layer;
  kind_name := grow !kind_name name;
  count := grow !count 0;
  total_ns := grow !total_ns 0;
  self_ns := grow !self_ns 0;
  n

let layer k = !kind_layer.(k)
let name k = !kind_name.(k)
let kinds () = Array.length !kind_name

(* ---- per-fiber span stacks ---- *)

let main_fiber = 64
let max_depth = 32

type stack = {
  mutable depth : int;
  sk : int array;
  start : int array;
  sid : int array;
  acc : int array;
}

let stacks =
  Array.init (main_fiber + 1) (fun _ ->
      {
        depth = 0;
        sk = Array.make max_depth 0;
        start = Array.make max_depth 0;
        sid = Array.make max_depth 0;
        acc = Array.make max_depth 0;
      })

let fiber () = if Sched.running () then (Sched.self ()).Repro_util.Cpu.id else main_fiber
let last = ref 0
let unattributed = ref 0
let next_id = ref 0

let charge f t =
  let d = t - !last in
  last := t;
  let s = stacks.(f) in
  let s = if s.depth = 0 && f <> main_fiber then stacks.(main_fiber) else s in
  if s.depth > 0 then s.acc.(s.depth - 1) <- s.acc.(s.depth - 1) + d
  else unattributed := !unattributed + d

(* ---- raw spans: the first [max_raw] go to the Chrome trace file ---- *)

let max_raw = 65_536
let raw_kind = Array.make max_raw 0
let raw_start = Array.make max_raw 0
let raw_end = Array.make max_raw 0
let raw_id = Array.make max_raw 0
let raw_parent = Array.make max_raw 0
let raw_fiber = Array.make max_raw 0
let raw_n = ref 0
let origin = ref 0

let parent_of f =
  let s = stacks.(f) in
  if s.depth > 0 then s.sid.(s.depth - 1)
  else
    let m = stacks.(main_fiber) in
    if m.depth > 0 then m.sid.(m.depth - 1) else -1

let enter k =
  let t = now () in
  let f = fiber () in
  charge f t;
  let s = stacks.(f) in
  if s.depth >= max_depth then failwith "Trace.enter: spans nested too deeply";
  let d = s.depth in
  s.sk.(d) <- k;
  s.start.(d) <- t;
  s.sid.(d) <- !next_id;
  s.acc.(d) <- 0;
  incr next_id;
  s.depth <- d + 1

let exit () =
  let t = now () in
  let f = fiber () in
  charge f t;
  let s = stacks.(f) in
  let d = s.depth - 1 in
  s.depth <- d;
  let k = s.sk.(d) in
  !count.(k) <- !count.(k) + 1;
  !total_ns.(k) <- !total_ns.(k) + (t - s.start.(d));
  !self_ns.(k) <- !self_ns.(k) + s.acc.(d);
  let n = !raw_n in
  if n < max_raw then begin
    raw_kind.(n) <- k;
    raw_start.(n) <- s.start.(d);
    raw_end.(n) <- t;
    raw_id.(n) <- s.sid.(d);
    raw_parent.(n) <- parent_of f;
    raw_fiber.(n) <- f;
    raw_n := n + 1
  end

(* [span k f] for coarse spans; the hot wrappers call [enter]/[exit]. *)
let span k f =
  if not !on then f ()
  else begin
    enter k;
    match f () with
    | r ->
        exit ();
        r
    | exception e ->
        exit ();
        raise e
  end

(* Start tracing: clear the aggregates (not the raw spans) and open the
   attribution interval. *)
let start () =
  Array.fill !count 0 (kinds ()) 0;
  Array.fill !total_ns 0 (kinds ()) 0;
  Array.fill !self_ns 0 (kinds ()) 0;
  unattributed := 0;
  last := now ();
  if !raw_n = 0 then origin := !last;
  on := true

type totals = { t_count : int array; t_total : int array; t_self : int array; t_unattributed : int }

(* Close the attribution interval at [now] and copy the aggregates. *)
let totals () =
  if !on then charge (fiber ()) (now ());
  {
    t_count = Array.copy !count;
    t_total = Array.copy !total_ns;
    t_self = Array.copy !self_ns;
    t_unattributed = !unattributed;
  }

(* Chrome trace-event JSON ("X" complete events, microseconds). *)
let write_chrome ~workload path =
  let us t = Json.Float (float_of_int (t - !origin) /. 1e3) in
  let events =
    List.init !raw_n (fun i ->
        let k = raw_kind.(i) in
        Json.Obj
          [
            ("name", Json.String (name k));
            ("cat", Json.String (layer k));
            ("ph", Json.String "X");
            ("ts", us raw_start.(i));
            ("dur", Json.Float (float_of_int (raw_end.(i) - raw_start.(i)) /. 1e3));
            ("pid", Json.Int 1);
            ("tid", Json.Int raw_fiber.(i));
            ( "args",
              Json.Obj
                [
                  ("id", Json.Int raw_id.(i));
                  ("parent", Json.Int raw_parent.(i));
                  ("workload", Json.String workload);
                ] );
          ])
  in
  let doc = Json.Obj [ ("traceEvents", Json.List events); ("displayTimeUnit", Json.String "ns") ] in
  let oc = open_out path in
  output_string oc (Json.to_string ~indent:false doc);
  close_out oc;
  !raw_n
