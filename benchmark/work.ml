(* The four workloads.

   Each workload has a set-up (format, and aging where the workload needs
   an aged file system) and a sequence of deterministic rounds drawn from
   the seed.  Main runs rounds in a closed loop until the time box
   is spent, stopping only at the end of a cycle (one round per file
   system, or per pass).  The first [window] rounds are the measured
   window: every run completes it, so the simulated metrics and every
   per-layer count, which are taken from it, depend on the seed alone.
   Host throughput is taken over all rounds. *)

open Repro_util
open Repro_vfs
module Device = Repro_pmem.Device
module Vmem = Repro_memsim.Vmem
module Registry = Repro_baselines.Registry
module G = Repro_aging.Geriatrix
module Part = Repro_workloads.Part_model
module Sched = Repro_sched.Sched
module Ace = Repro_crashcheck.Ace
module Checker = Repro_crashcheck.Checker
module Torture = Repro_crashcheck.Torturecheck
module Fsck = Repro_fsck.Fsck
module Json = Repro_stats.Json

let mib = Units.mib

(* Independent sub-seed [i] of [seed]. *)
let sub_seed seed i = Rng.int (Rng.create ((seed * 0x9E3779B1) + i)) 0x3FFFFFFF

(* ---- what the rounds record ---- *)

(* Per file system over the window: simulated work and simulated ns. *)
let sim_work = Array.make Timed.n_fs 0.
let sim_ns = Array.make Timed.n_fs 0.

(* WineFS simulated latency samples over the window. *)
let sim_lat = ref (Histogram.create ())

(* Per-layer values only a workload can see (aging report, campaign
   results, Sched stats, census), window-scoped. *)
let layer : (string, float) Hashtbl.t = Hashtbl.create 32

let layer_add name v =
  Hashtbl.replace layer name (v +. Option.value ~default:0. (Hashtbl.find_opt layer name))

let attempted = ref 0
let failures : string list ref = ref []

let check what ok =
  incr attempted;
  if not ok then failures := what :: !failures

let fail what = failures := what :: !failures

(* Vmem counter sets whose window deltas feed the [vmem.*] metrics. *)
let vm_counters : Counters.t list ref = ref []

let reset_window () =
  Array.fill sim_work 0 Timed.n_fs 0.;
  Array.fill sim_ns 0 Timed.n_fs 0.;
  sim_lat := Histogram.create ();
  Hashtbl.reset layer

let record_sim slot ~work ~ns =
  sim_work.(slot) <- sim_work.(slot) +. work;
  sim_ns.(slot) <- sim_ns.(slot) +. float_of_int ns

(* Figure 3's y-axis: free space in aligned 2MB regions over free space. *)
let census slot h =
  Hashtbl.replace layer ("alloc.aligned_free_frac." ^ Timed.fs_labels.(slot)) (fst (G.census h))

type instance = {
  round : window:bool -> int -> float;  (** run round [r]; returns host work done *)
  finish : unit -> (string * Json.t) list;  (** correctness oracle; returns info fields *)
}

type t = {
  name : string;
  work_unit : string;
  cycle : int;
  window : int;
  setup : quick:bool -> seed:int -> instance;
}

(* ---- shared oracle ---- *)

let image_crc dev =
  let size = Device.size dev in
  let buf = Bytes.create mib in
  let crc = ref Crc32c.init in
  let off = ref 0 in
  while !off < size do
    let len = min mib (size - !off) in
    Device.peek dev ~off:!off ~len ~dst:buf ~dst_off:0;
    crc := Crc32c.update !crc buf ~off:0 ~len;
    off := !off + len
  done;
  Crc32c.finish !crc

(* A known disagreement inside the program: Extent_map merges physically
   adjacent extent records even when they lie in two per-CPU data
   stripes, and fsck rejects a record that crosses a stripe boundary
   ("extent-bounds"), after which the serialized free list also disagrees
   with its scan ("free-list").  Aging reaches it on a few seeds in a
   hundred.  Those findings are counted and reported, not failed. *)
let known_finding (report : Fsck.report) (f : Fsck.finding) =
  let bounds (g : Fsck.finding) = String.equal g.rule "extent-bounds" in
  bounds f || (String.equal f.rule "free-list" && List.exists bounds report.findings)

(* Unmount WineFS, check the image offline, remount: fsck must find
   nothing (but the known findings) and statfs must read as before.
   Returns the remounted handle and info fields: the image CRC32C and the
   known findings. *)
let winefs_remount (Fs_intf.Handle ((module F), fs)) =
  let cpu = Cpu.make ~id:0 () in
  let before = F.statfs fs in
  F.unmount fs cpu;
  let dev = F.device fs in
  let report = Fsck.run dev in
  let known = List.filter (known_finding report) report.findings in
  check
    ("fsck finds the unmounted WineFS image clean: " ^ Fsck.to_string report)
    (List.length known = List.length report.findings);
  let fs2 = F.mount dev (F.config fs) in
  check "statfs after remount equals statfs before unmount" (F.statfs fs2 = before);
  ( Fs_intf.Handle ((module F), fs2),
    [
      ("image_crc32c", Json.String (Printf.sprintf "0x%08x" (image_crc dev)));
      ("known_fsck_findings", Json.Int (List.length known));
    ] )

(* ---- age: Geriatrix churn from mkfs, one file system per round ---- *)

let age =
  (* WineFS last in the cycle: the run ends on a WineFS image, which the
     oracle then checks. *)
  let fss = [| Registry.ext4_dax; Registry.nova; Registry.strata; Registry.winefs |] in
  let cfg = Types.config ~cpus:4 ~inodes_per_cpu:8192 () in
  let k_age = Trace.kind ~layer:"aging" "age" in
  let setup ~quick ~seed =
    let dev_mb, churn = if quick then (32, 2) else (192, 12) in
    let dev = Device.create ~size:(dev_mb * mib) () in
    Array.iter (fun (f : Registry.factory) -> ignore (f.make dev cfg)) fss;
    let last_winefs = ref None in
    let round ~window r =
      let f = fss.(r mod 4) in
      let slot = Timed.fs_slot f.fs_name in
      let h = Timed.format f dev cfg in
      if window && slot = Timed.winefs then begin
        Timed.lifecycles := Histogram.create ();
        Timed.lifecycle_fs := slot
      end;
      let sim0 = Timed.fs_sim_ns slot in
      (* One churn sequence per cycle: all four file systems age alike. *)
      let report =
        Trace.span k_age (fun () ->
            G.age h ~seed:(sub_seed seed (r / 4)) ~profile:G.agrawal ~target_util:0.75
              ~churn_bytes:(churn * dev_mb * mib) ())
      in
      Timed.lifecycle_fs := -1;
      let mb = float_of_int report.G.bytes_written /. float_of_int mib in
      attempted := !attempted + report.G.files_created;
      if window then begin
        record_sim slot ~work:mb ~ns:(Timed.fs_sim_ns slot - sim0);
        layer_add "aging.files_created" (float_of_int report.G.files_created);
        layer_add "aging.bytes_written" (float_of_int report.G.bytes_written);
        census slot h;
        if slot = Timed.winefs then sim_lat := !Timed.lifecycles
      end;
      if slot = Timed.winefs then last_winefs := Some h;
      mb
    in
    let finish () =
      match !last_winefs with
      | None -> []
      | Some h ->
          let Fs_intf.Handle ((module F), fs), info = winefs_remount h in
          (* Aged files read back as the ager wrote them: all 'g'. *)
          let cpu = Cpu.make ~id:0 () in
          let files =
            List.concat_map
              (fun d ->
                let dir = Printf.sprintf "/g%d" d in
                List.map (fun n -> dir ^ "/" ^ n) (F.readdir fs cpu dir))
              (List.init G.agrawal.G.dirs Fun.id)
            |> Array.of_list
          in
          let rng = Rng.create (sub_seed seed 0x5A) in
          let n = min 64 (Array.length files) in
          check "aged WineFS holds files" (n > 0);
          for _ = 1 to n do
            let path = Rng.pick rng files in
            let fd = F.openf fs cpu path Types.o_rdonly in
            let data = F.pread fs cpu fd ~off:0 ~len:(F.file_size fs fd) in
            F.close fs cpu fd;
            check ("aged file reads back 'g': " ^ path)
              (String.for_all (fun c -> c = 'g') data)
          done;
          ("files_sampled", Json.Int n) :: info
    in
    { round; finish }
  in
  { name = "age"; work_unit = "MB churned"; cycle = 4; window = 4; setup }

(* ---- mmap: streaming passes and P-ART through Vmem on aged files ---- *)

type mapped = {
  m_slot : int;
  m_h : Fs_intf.handle;
  m_fd : Fs_intf.fd;
  m_vm : Vmem.t;
  m_part : Part.t;
  m_cpu : Cpu.t;
}

let mmap =
  let fss = [| Registry.winefs; Registry.nova |] in
  let cfg = Types.config ~cpus:4 ~inodes_per_cpu:8192 () in
  let passes =
    [|
      (`Seq_write, 65536); (`Seq_read, 65536); (`Rand_write, 65536); (`Rand_read, 65536);
      (`Seq_write, 256); (`Seq_read, 256); (`Rand_write, 256); (`Rand_read, 256);
    |]
  in
  let steps = Array.length passes + 1 in
  let k_part = Trace.kind ~layer:"workloads" "part" in
  (* Keys spread over the 32-bit space, as in Fig 8: each needs about two
     2KB nodes, so [keys] fills most of the pool and lookups chase
     pointers across all of it. *)
  let key_of i = i * 2654435761 land 0xFFFFFFFF in
  let setup ~quick ~seed =
    let dev_mb, churn, file_mb, pool_mb, keys, lookups =
      if quick then (96, 1, 4, 4, 800, 2_048) else (192, 8, 24, 16, 3_400, 65_536)
    in
    let file_bytes = file_mb * mib in
    let mk (f : Registry.factory) =
      let dev = Device.create ~size:(dev_mb * mib) () in
      let h = Timed.format f dev cfg in
      ignore
        (G.age h ~seed:(sub_seed seed 1) ~profile:G.agrawal ~target_util:0.5
           ~churn_bytes:(churn * dev_mb * mib) ());
      let (Fs_intf.Handle ((module F), fs)) = h in
      let cpu = Cpu.make ~id:0 () in
      let fd = F.create fs cpu "/stream" in
      let chunk = String.make Units.huge_page 'i' in
      for i = 0 to (file_bytes / Units.huge_page) - 1 do
        ignore
          (F.pwrite_sub fs cpu fd ~off:(i * Units.huge_page) ~src:chunk ~src_off:0
             ~len:Units.huge_page)
      done;
      let part = Part.create h ~pool_bytes:(pool_mb * mib) () in
      for i = 0 to keys - 1 do
        Part.insert part cpu ~key:(key_of i) ~value:i
      done;
      let vm = Vmem.create dev in
      vm_counters := Vmem.counters vm :: Part.vm_counters part :: !vm_counters;
      { m_slot = Timed.fs_slot f.fs_name; m_h = h; m_fd = fd; m_vm = vm; m_part = part; m_cpu = cpu }
    in
    vm_counters := [];
    let st = Array.map mk fss in
    let pass m rng ~mode ~chunk ~fill =
      let (Fs_intf.Handle ((module F), fs)) = m.m_h in
      let region = Timed.vmmap m.m_vm ~len:file_bytes ~backing:(F.mmap_backing fs m.m_fd) in
      let io = if chunk >= 65536 then file_bytes else file_bytes / 8 in
      let n = io / chunk and chunks = file_bytes / chunk in
      let src = String.make chunk fill in
      let t0 = Cpu.now m.m_cpu in
      for i = 0 to n - 1 do
        let off =
          match mode with
          | `Seq_write | `Seq_read -> i mod chunks * chunk
          | `Rand_write | `Rand_read -> Rng.int rng chunks * chunk
        in
        match mode with
        | `Seq_write | `Rand_write -> Timed.vwrite m.m_vm m.m_cpu region ~off ~src
        | `Seq_read | `Rand_read -> Timed.vread m.m_vm m.m_cpu region ~off ~len:chunk
      done;
      let ns = Cpu.now m.m_cpu - t0 in
      Timed.vmunmap m.m_vm region;
      (n, io, ns)
    in
    (* Fig 8's pointer chase: lookups, and one same-value update in
       eight so the pool also sees stores. *)
    let part_batch ~window m rng =
      let sample = window && m.m_slot = Timed.winefs in
      for i = 1 to lookups do
        let j = Rng.int rng keys in
        let key = key_of j in
        if i land 7 = 0 then
          Trace.span k_part (fun () -> Part.insert m.m_part m.m_cpu ~key ~value:j)
        else begin
          let t0 = Cpu.now m.m_cpu in
          let v = Trace.span k_part (fun () -> Part.lookup m.m_part m.m_cpu ~key) in
          if sample then Histogram.add !sim_lat (Cpu.now m.m_cpu - t0);
          if v <> Some j then fail (Printf.sprintf "P-ART lookup of key %d" key)
        end
      done;
      lookups
    in
    let round ~window r =
      let m = st.(r mod 2) in
      let step = r / 2 mod steps in
      let rng = Rng.create (sub_seed seed r) in
      if window && step = 0 then census m.m_slot m.m_h;
      let ops =
        if step < Array.length passes then begin
          let mode, chunk = passes.(step) in
          let fill = Char.chr (Char.code 'a' + (r mod 26)) in
          let n, io, ns = pass m rng ~mode ~chunk ~fill in
          if window then record_sim m.m_slot ~work:(float_of_int io /. float_of_int mib) ~ns;
          n
        end
        else part_batch ~window m rng
      in
      attempted := !attempted + ops;
      float_of_int ops
    in
    let finish () =
      (* Bytes stored through the mapping read back through pread, and a
         mapped read agrees with pread. *)
      Array.iter
        (fun m ->
          let (Fs_intf.Handle ((module F), fs)) = m.m_h in
          let page = Units.base_page in
          let rng = Rng.create (sub_seed seed 0x3A) in
          let pattern =
            String.init (file_bytes / page) (fun _ -> Char.chr (Char.code 'A' + Rng.int rng 26))
          in
          let region = Timed.vmmap m.m_vm ~len:file_bytes ~backing:(F.mmap_backing fs m.m_fd) in
          String.iteri
            (fun p c ->
              Timed.vwrite m.m_vm m.m_cpu region ~off:(p * page) ~src:(String.make page c))
            pattern;
          Timed.vmunmap m.m_vm region;
          let data = F.pread fs m.m_cpu m.m_fd ~off:0 ~len:file_bytes in
          let expected = String.init file_bytes (fun i -> pattern.[i / page]) in
          check
            (Timed.fs_labels.(m.m_slot) ^ ": mapped writes read back through pread")
            (String.equal data expected);
          let region = Timed.vmmap m.m_vm ~len:file_bytes ~backing:(F.mmap_backing fs m.m_fd) in
          let mapped = Bytes.create file_bytes in
          Timed.vread_into m.m_vm m.m_cpu region ~off:0 ~dst:mapped ~len:file_bytes;
          Timed.vmunmap m.m_vm region;
          check
            (Timed.fs_labels.(m.m_slot) ^ ": mapped read equals pread")
            (Bytes.unsafe_to_string mapped = data))
        st;
      let w = st.(0) in
      let (Fs_intf.Handle ((module F), fs)) = w.m_h in
      F.close fs w.m_cpu w.m_fd;
      snd (winefs_remount w.m_h)
    in
    { round; finish }
  in
  { name = "mmap"; work_unit = "mapped accesses"; cycle = 2 * steps; window = 2 * steps; setup }

(* ---- meta: 8 Sched fibers doing durable file lifecycles ---- *)

let meta =
  let fss = [| Registry.ext4_dax; Registry.nova; Registry.strata; Registry.winefs |] in
  let threads = 8 in
  let cfg = Types.config ~cpus:threads ~mode:Types.Strict ~inodes_per_cpu:8192 () in
  let k_run = Trace.kind ~layer:"sched" "run" in
  let block = Units.base_page in
  let payloads = Array.init 26 (fun i -> String.make block (Char.chr (Char.code 'a' + i))) in
  let setup ~quick ~seed =
    let dev_mb, churn, files, appends, pwrites =
      if quick then (32, 1, 3, 4, 4) else (64, 8, 16, 8, 10)
    in
    let mk (f : Registry.factory) =
      let dev = Device.create ~size:(dev_mb * mib) () in
      let h = Timed.format f dev cfg in
      ignore
        (G.age h ~seed:(sub_seed seed 2) ~profile:G.agrawal ~target_util:0.75
           ~churn_bytes:(churn * dev_mb * mib) ());
      let (Fs_intf.Handle ((module F), fs)) = h in
      let cpu = Cpu.make ~id:0 () in
      for t = 0 to threads - 1 do
        F.mkdir fs cpu (Printf.sprintf "/m%d" t)
      done;
      h
    in
    let st = Array.map mk fss in
    let round ~window r =
      let f = fss.(r mod 4) in
      let slot = Timed.fs_slot f.fs_name in
      let (Fs_intf.Handle ((module F), fs)) = st.(r mod 4) in
      let sample = window && slot = Timed.winefs in
      if window then census slot st.(r mod 4);
      let ops = ref 0 in
      (* Each round works in fresh directories and removes them: NOVA's
         model never cleans a directory's log, so a directory that lived
         through every round would fill the device. *)
      let shared = Printf.sprintf "/s%d" r in
      let main = Cpu.make ~id:0 () in
      F.mkdir fs main shared;
      let body (cpu : Cpu.t) =
        let t = cpu.Cpu.id in
        let rng = Rng.create (sub_seed seed ((r * 64) + t)) in
        let op call =
          incr ops;
          call ()
        in
        let own = Printf.sprintf "/m%d/r%d" t r in
        op (fun () -> F.mkdir fs cpu own);
        let pwrites_done = ref 0 in
        for i = 0 to files - 1 do
          let t0 = Cpu.now cpu in
          (* A quarter of the files share one directory. *)
          let dir = if i land 3 = 3 then shared else own in
          let path = Printf.sprintf "%s/t%d.f%d" dir t i in
          let fd = op (fun () -> F.create fs cpu path) in
          let model = Array.make appends 0 in
          for a = 0 to appends - 1 do
            model.(a) <- Rng.int rng 26;
            ignore (op (fun () -> F.append fs cpu fd ~src:payloads.(model.(a))));
            op (fun () -> F.fsync fs cpu fd)
          done;
          for _ = 1 to pwrites do
            let b = Rng.int rng appends in
            model.(b) <- Rng.int rng 26;
            ignore (op (fun () -> F.pwrite fs cpu fd ~off:(b * block) ~src:payloads.(model.(b))));
            incr pwrites_done;
            if !pwrites_done mod 10 = 0 then op (fun () -> F.fsync fs cpu fd)
          done;
          let b = Rng.int rng appends in
          let data = op (fun () -> F.pread fs cpu fd ~off:(b * block) ~len:block) in
          if not (String.equal data payloads.(model.(b))) then fail ("pread content of " ^ path);
          let size = (op (fun () -> F.stat fs cpu path)).Types.st_size in
          if size <> appends * block then fail ("stat size of " ^ path);
          let renamed = path ^ ".mv" in
          op (fun () -> F.rename fs cpu ~old_path:path ~new_path:renamed);
          if i land 7 = 7 then begin
            let names = op (fun () -> F.readdir fs cpu dir) in
            if not (List.mem (Filename.basename renamed) names) then fail ("readdir of " ^ dir)
          end;
          op (fun () -> F.close fs cpu fd);
          op (fun () -> F.unlink fs cpu renamed);
          if sample then Histogram.add !sim_lat (Cpu.now cpu - t0)
        done;
        op (fun () -> F.rmdir fs cpu own)
      in
      let stats = Trace.span k_run (fun () -> Sched.run ~threads body) in
      F.rmdir fs main shared;
      attempted := !attempted + !ops;
      if window then begin
        record_sim slot ~work:(float_of_int !ops) ~ns:stats.Sched.makespan_ns;
        layer_add "sched.lock_wait_ns" (float_of_int stats.Sched.lock_wait_ns);
        layer_add "sched.busy_ns" (float_of_int stats.Sched.total_busy_ns);
        layer_add "sched.makespan_ns" (float_of_int stats.Sched.makespan_ns)
      end;
      float_of_int !ops
    in
    let finish () =
      snd (winefs_remount st.(3))
    in
    { round; finish }
  in
  { name = "meta"; work_unit = "FS calls"; cycle = 4; window = 32; setup }

(* ---- crash: crash-state search plus recovery mounts ---- *)

let crash =
  let k_checker = Trace.kind ~layer:"crashcheck" "checker" in
  let k_torture = Trace.kind ~layer:"crashcheck" "torture" in
  let cfg = Types.config ~cpus:4 ~inodes_per_cpu:1024 () in
  let payload = String.make Units.base_page 'r' in
  let setup ~quick ~seed =
    let ace, device_size, max_random_subsets, iterations, probes =
      if quick then
        ([| List.find (fun w -> w.Ace.w_name = "seq1-create") Ace.seq1 |], 8 * mib, 2, 1, 40)
      else (Array.of_list Ace.all, 48 * mib, 24, 4, 300)
    in
    (* The recovery probe: a WineFS image on an Optane-cost device that is
       crashed (remounted without unmount) again and again. *)
    let dev = Device.create ~size:(32 * mib) () in
    let h = ref (Timed.format Registry.winefs dev cfg) in
    let next = ref 0 in
    let add_file () =
      let (Fs_intf.Handle ((module F), fs)) = !h in
      let cpu = Cpu.make ~id:0 () in
      let path = Printf.sprintf "/p%d" !next in
      incr next;
      let fd = F.create fs cpu path in
      ignore (F.pwrite fs cpu fd ~off:0 ~src:payload);
      F.close fs cpu fd;
      path
    in
    let base = if quick then 16 else 512 in
    for _ = 1 to base do
      ignore (add_file ())
    done;
    let round ~window r =
      let w = ace.(r mod Array.length ace) in
      let res =
        Trace.span k_checker (fun () ->
            Checker.run ~mode:Types.Strict ~workloads:[ w ] ~max_random_subsets ~device_size ())
      in
      let rep =
        Trace.span k_torture (fun () ->
            Torture.run ~seed:(sub_seed seed r) ~iterations ~device_size ())
      in
      List.iter (fun (wn, d) -> fail ("checker " ^ wn ^ ": " ^ d)) res.Checker.failures;
      List.iter
        (fun (f : Torture.failure) -> fail ("torture " ^ f.t_workload ^ ": " ^ f.t_diagnosis))
        rep.Torture.failures;
      let states = res.Checker.states_checked + rep.Torture.crashes in
      attempted := !attempted + states;
      (* Recovery probes: grow the image a little, crash, recover. *)
      let rng = Rng.create (sub_seed seed (r + 0x10000)) in
      let mine = ref [] and files = ref base in
      for _ = 1 to probes do
        for _ = 0 to Rng.int rng 4 do
          mine := add_file () :: !mine;
          incr files
        done;
        let (Fs_intf.Handle ((module F), fs)) = !h in
        let fs' = F.mount (F.device fs) (F.config fs) in
        h := Fs_intf.Handle ((module F), fs');
        if window then begin
          let ns = F.recovery_ns fs' in
          Histogram.add !sim_lat ns;
          record_sim Timed.winefs ~work:(float_of_int !files) ~ns
        end
      done;
      (* Back to the base population, cleanly unmounted, so every round
         starts from the same image. *)
      let (Fs_intf.Handle ((module F), fs)) = !h in
      let cpu = Cpu.make ~id:0 () in
      List.iter (fun p -> F.unlink fs cpu p) !mine;
      F.unmount fs cpu;
      h := Fs_intf.Handle ((module F), F.mount (F.device fs) (F.config fs));
      if window then begin
        layer_add "crashcheck.states" (float_of_int res.Checker.states_checked);
        layer_add "crashcheck.crash_points" (float_of_int res.Checker.crash_points);
        layer_add "crashcheck.torture_crashes" (float_of_int rep.Torture.crashes);
        layer_add "crashcheck.failures"
          (float_of_int (List.length res.Checker.failures + List.length rep.Torture.failures))
      end;
      float_of_int states
    in
    let finish () =
      snd (winefs_remount !h)
    in
    { round; finish }
  in
  { name = "crash"; work_unit = "crash states"; cycle = 1; window = 2; setup }

let all = [ age; mmap; meta; crash ]
