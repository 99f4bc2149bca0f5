(* Metrics: the end-to-end set (tracing off) and the per-layer set (from
   the traced run's window).  Names and units here are the ones
   BENCHMARK.json declares; the smoke test checks that they agree. *)

open Repro_util
module Stats = Repro_stats.Stats
module Json = Repro_stats.Json
module Sched = Repro_sched.Sched

type metric = { name : string; unit : string; value : float }

let m name unit value = { name; unit; value }
let mib = float_of_int Units.mib
let s_of_ns ns = float_of_int ns /. 1e9

let median l =
  let a = Array.of_list (List.sort Float.compare l) in
  let n = Array.length a in
  if n = 0 then nan else if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let per_s work ns = if ns <= 0. then 0. else work /. (ns /. 1e9)

(* ---- end to end ---- *)

(* [top_heap_words] is the peak heap of set-up plus the window: a fixed
   amount of work.  The heap keeps growing past the window while the
   major GC lags behind allocation, so a later reading would grow with
   the number of rounds the time box allowed. *)
let end_to_end ~setup_s ~rates ~top_heap_words =
  let w = Timed.winefs in
  [
    m "setup_s" "s" (median setup_s);
    m "work_per_s" "work/s" (median rates);
    m "peak_heap_mb" "MB" (float_of_int (top_heap_words * (Sys.word_size / 8)) /. mib);
    m "sim_work_per_s.winefs" "work/s" (per_s Work.sim_work.(w) Work.sim_ns.(w));
  ]

(* ---- the measured window, frozen when its last round ends ---- *)

type window = {
  wall_ns : int;
  trace : Trace.totals;
  calls : int array;
  sim_ns : int array;
  errors : int;
  user_bytes : int;
  huge : int array;
  base : int array;
  sigbus : int array;
  vmem_calls : int;
  stats : Stats.snapshot;
  layer : (string * float) list;
  vm : (string * int) list;
  gc : Gc.stat;
  acquisitions : int;
  sim_work : float array;
  sim_ns_fs : float array;
  lat : Histogram.t;
}

(* Baselines taken when the window opens. *)
let gc0 = ref (Gc.quick_stat ())
let vm0 = ref []

(* Vmem counters summed over every mapping space the workload made. *)
let vm_totals () =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun c ->
      List.iter
        (fun (k, v) ->
          Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
        (Counters.snapshot c))
    !Work.vm_counters;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let open_window () =
  Timed.reset ();
  Work.reset_window ();
  Stats.reset ();
  Sched.Lock_order.reset ();
  vm0 := vm_totals ();
  gc0 := Gc.quick_stat ()

let close_window ~wall_ns =
  {
    wall_ns;
    trace = Trace.totals ();
    calls = Array.copy Timed.calls;
    sim_ns = Array.copy Timed.sim_ns;
    errors = !Timed.errors;
    user_bytes = !Timed.user_bytes;
    huge = Array.copy Timed.faults_huge;
    base = Array.copy Timed.faults_base;
    sigbus = Array.copy Timed.faults_sigbus;
    vmem_calls = !Timed.vmem_calls;
    stats = Stats.snapshot ();
    layer = Hashtbl.fold (fun k v acc -> (k, v) :: acc) Work.layer [];
    vm = Counters.diff ~before:!vm0 ~after:(vm_totals ());
    gc = Gc.quick_stat ();
    acquisitions = Sched.Lock_order.acquisitions ();
    sim_work = Array.copy Work.sim_work;
    sim_ns_fs = Array.copy Work.sim_ns;
    lat = !Work.sim_lat;
  }

(* Self host ns of the spans whose kind satisfies [p]. *)
let self_where w p =
  let s = ref 0 in
  Array.iteri (fun k v -> if p k then s := !s + v) w.trace.t_self;
  !s

let total_where w p =
  let s = ref 0 in
  Array.iteri (fun k v -> if p k then s := !s + v) w.trace.t_total;
  !s

let is_layer l k = String.equal (Trace.layer k) l
let is_kind l n k = is_layer l k && String.equal (Trace.name k) n

(* Host ns attributed to spans, and the part of the window left over:
   the benchmark's own loop.  Negative would mean double counting. *)
let attributed_ns w = Array.fold_left ( + ) 0 w.trace.t_self
let remainder_ns w = w.wall_ns - attributed_ns w

let counter w name =
  List.fold_left
    (fun acc (n, _, v) -> if String.equal n name then acc + v else acc)
    0 w.stats.Stats.s_counters

(* Sum of counter [name] over the sites of PM layer [l] ("core.commit"
   belongs to "core"). *)
let site_counter w name l =
  List.fold_left
    (fun acc (n, labels, v) ->
      match List.assoc_opt "site" labels with
      | Some site
        when String.equal n name
             && String.equal (List.hd (String.split_on_char '.' site)) l ->
          acc + v
      | _ -> acc)
    0 w.stats.Stats.s_counters

let gauge w name =
  List.fold_left
    (fun acc (n, _, v) -> if String.equal n name then acc + v else acc)
    0 w.stats.Stats.s_gauges

let per_layer w =
  let f = float_of_int in
  let lay name = Option.value ~default:0. (List.assoc_opt name w.layer) in
  let vm name = f (Option.value ~default:0 (List.assoc_opt name w.vm)) in
  let op_sum a op =
    let s = ref 0 in
    for fs = 0 to Timed.n_fs - 1 do
      s := !s + a.((fs * Timed.n_ops) + op)
    done;
    !s
  in
  let fs_sum a fs =
    let s = ref 0 in
    for op = 0 to Timed.n_ops - 1 do
      s := !s + a.((fs * Timed.n_ops) + op)
    done;
    !s
  in
  let fs_self = Array.map (fun k -> w.trace.t_self.(k)) Timed.fs_kinds in
  let sum a = Array.fold_left ( + ) 0 a in
  let huge_frac slot =
    let h = f w.huge.(slot) *. f Units.huge_page and b = f w.base.(slot) *. f Units.base_page in
    if h +. b = 0. then 0. else h /. (h +. b)
  in
  let pm = [ "core"; "journal"; "redo"; "basefs"; "nova"; "strata"; "vmem"; "fsck" ] in
  let pm_fences = [ "core"; "journal"; "redo"; "basefs"; "nova"; "strata" ] in
  let device_written = counter w "pm.store_bytes" + counter w "pm.nt_store_bytes" in
  let fs_ops =
    List.concat
      (List.init Timed.n_ops (fun op ->
           let o = "fs." ^ Timed.ops.(op) in
           [ m (o ^ ".calls") "count" (f (op_sum w.calls op));
             m (o ^ ".host_s") "s" (s_of_ns (op_sum fs_self op)) ]
           @
           if op = Timed.op_statfs then []
           else [ m (o ^ ".sim_ns") "ns" (f (op_sum w.sim_ns op)) ]))
  in
  List.concat
    [
      [
        m "aging.host_s" "s" (s_of_ns (total_where w (is_layer "aging")));
        m "aging.self_host_s" "s" (s_of_ns (self_where w (is_layer "aging")));
        m "aging.files_created" "count" (lay "aging.files_created");
        m "aging.bytes_written" "B" (lay "aging.bytes_written");
      ];
      fs_ops;
      [ m "fs.errors" "count" (f w.errors) ];
      List.init Timed.n_fs (fun i ->
          m ("fs.host_s." ^ Timed.fs_labels.(i)) "s" (s_of_ns (fs_sum fs_self i)));
      List.init Timed.n_fs (fun i ->
          m ("fs.sim_ns." ^ Timed.fs_labels.(i)) "ns" (f (fs_sum w.sim_ns i)));
      [
        m "vmem.calls" "count" (f w.vmem_calls);
        m "vmem.self_host_s" "s" (s_of_ns (self_where w (is_layer "vmem")));
        m "vmem.page_faults" "count" (vm "mm.page_faults");
        m "vmem.huge_faults" "count" (vm "mm.huge_faults");
        m "vmem.tlb_misses" "count" (vm "mm.tlb_misses");
        m "vmem.llc_misses" "count" (vm "mm.llc_misses");
        m "vmem.fault_sim_ns" "ns" (vm "mm.fault_ns");
        m "fault.calls" "count" (f (sum w.huge + sum w.base + sum w.sigbus));
        m "fault.host_s" "s" (s_of_ns (self_where w (is_layer "fault")));
        m "fault.huge" "count" (f (sum w.huge));
        m "fault.base" "count" (f (sum w.base));
        m "fault.sigbus" "count" (f (sum w.sigbus));
        m "huge_map_frac.winefs" "frac" (huge_frac Timed.winefs);
        m "huge_map_frac.nova" "frac" (huge_frac Timed.nova);
        m "workloads.part.host_s" "s" (s_of_ns (self_where w (is_layer "workloads")));
        m "pmem.store_bytes" "B" (f (counter w "pm.store_bytes"));
        m "pmem.nt_store_bytes" "B" (f (counter w "pm.nt_store_bytes"));
        m "pmem.load_bytes" "B" (f (counter w "pm.load_bytes"));
        m "pmem.flush_lines" "count" (f (counter w "pm.flush_lines"));
        m "pmem.fences" "count" (f (counter w "pm.fences"));
        m "pmem.write_amp" "ratio"
          (if w.user_bytes = 0 then 0. else f device_written /. f w.user_bytes);
      ];
      List.map
        (fun l ->
          m ("pmem.bytes_written." ^ l) "B"
            (f (site_counter w "pm.store_bytes" l + site_counter w "pm.nt_store_bytes" l)))
        pm;
      List.map (fun l -> m ("pmem.fences." ^ l) "count" (f (site_counter w "pm.fences" l))) pm_fences;
      List.map
        (fun n -> m n "count" (f (counter w n)))
        [
          "journal.undo.entries"; "journal.undo.reclaims"; "journal.redo.commits";
          "journal.redo.records"; "journal.redo.wraps";
        ];
      [
        m "alloc.free_aligned_extents" "count" (f (gauge w "alloc.free_aligned_extents"));
      ];
      List.init Timed.n_fs (fun i ->
          let n = "alloc.aligned_free_frac." ^ Timed.fs_labels.(i) in
          m n "frac" (lay n));
      [
        m "sched.lock_wait_ns" "ns" (lay "sched.lock_wait_ns");
        m "sched.busy_ns" "ns" (lay "sched.busy_ns");
        m "sched.makespan_ns" "ns" (lay "sched.makespan_ns");
        m "sched.acquisitions" "count" (f w.acquisitions);
        m "crashcheck.checker_host_s" "s"
          (s_of_ns (self_where w (is_kind "crashcheck" "checker")));
        m "crashcheck.states" "count" (lay "crashcheck.states");
        m "crashcheck.crash_points" "count" (lay "crashcheck.crash_points");
        m "crashcheck.torture_host_s" "s"
          (s_of_ns (self_where w (is_kind "crashcheck" "torture")));
        m "crashcheck.torture_crashes" "count" (lay "crashcheck.torture_crashes");
        m "crashcheck.failures" "count" (lay "crashcheck.failures");
        m "fsck.runs" "count" (f (counter w "fsck.runs"));
        m "fsck.findings" "count" (f (counter w "fsck.findings"));
        m "fsck.repairs" "count" (f (counter w "fsck.repairs"));
        m "gc.minor_mwords" "Mwords" ((w.gc.Gc.minor_words -. !gc0.Gc.minor_words) /. 1e6);
        m "gc.major_mwords" "Mwords" ((w.gc.Gc.major_words -. !gc0.Gc.major_words) /. 1e6);
        m "gc.major_collections" "count"
          (f (w.gc.Gc.major_collections - !gc0.Gc.major_collections));
      ];
      (* The baselines; WineFS's is end to end. *)
      List.init (Timed.n_fs - 1) (fun k ->
          let i = k + 1 in
          m ("sim_work_per_s." ^ Timed.fs_labels.(i)) "work/s" (per_s w.sim_work.(i) w.sim_ns_fs.(i)));
      [
        m "sim_p50_ns.winefs" "ns" (f (Histogram.percentile w.lat 50.));
        m "sim_p99_ns.winefs" "ns" (f (Histogram.percentile w.lat 99.));
      ];
    ]

let to_json metrics =
  Json.Obj
    (List.map
       (fun x -> (x.name, Json.Obj [ ("value", Json.Float x.value); ("unit", Json.String x.unit) ]))
       metrics)
