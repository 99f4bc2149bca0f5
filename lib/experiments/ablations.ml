(** Ablations: isolate each WineFS design choice the paper argues for.

    A. Hugepages themselves (§2.2/§2.4): the same aged WineFS instance,
       with the mapping allowed vs forbidden to use hugepages — everything
       else identical.
    B. Hybrid data atomicity (§3.4): atomic 64KB overwrites against an
       aligned-extent-backed file (data-journaling side) vs a hole-backed
       file (copy-on-write side).
    C. Per-CPU journals (§3.4): the Figure-10 workload on WineFS built
       with 1, 2, 4, 8 journals (cpus=1 is the PMFS-style single-journal
       configuration).
    D. NUMA-aware placement (§3.6): streaming writes with allocations
       routed by the home-node policy vs deliberately remote. *)

open Repro_util
module Device = Repro_pmem.Device
module Types = Repro_vfs.Types
module Registry = Repro_baselines.Registry
module Vmem = Repro_memsim.Vmem
module W = Repro_workloads.Micro
module Fs = Winefs.Fs
module Site = Repro_pmem.Site
module Stats = Repro_stats.Stats

(* Durability-lint sites for the benchmark drivers' own PM traffic. *)
let site_mmap_flush = Site.v "ablation" "mmap_flush"
let site_numa_stream = Site.v "ablation" "numa_stream"

(* A: hugepages on/off over the same aged file system. *)
let huge_onoff setup =
  let t =
    Table.create ~title:"Ablation A: aged WineFS, hugepages allowed vs forbidden"
      ~columns:[ "mapping"; "mmap seq-write MB/s"; "page-faults" ]
  in
  let (Repro_vfs.Fs_intf.Handle ((module F), fs)) =
    fst (Exp_common.aged setup Registry.winefs ~target_util:0.6)
  in
  let cpu = Cpu.make ~id:0 () in
  let file_bytes = 32 * Units.mib * setup.Exp_common.scale in
  let fd = F.create fs cpu "/abl-a" in
  F.fallocate fs cpu fd ~off:0 ~len:file_bytes;
  List.iter
    (fun (label, huge_ok) ->
      let vm = Vmem.create (F.device fs) in
      let region = Vmem.mmap vm ~len:file_bytes ~backing:(F.mmap_backing fs fd) ~huge_ok () in
      let c = Cpu.make ~id:0 () in
      let payload = String.make Units.huge_page 'a' in
      let t0 = Cpu.now c in
      for i = 0 to (file_bytes / Units.huge_page) - 1 do
        Vmem.write vm c region ~off:(i * Units.huge_page) ~src:payload
      done;
      Device.with_site (F.device fs) site_mmap_flush (fun () -> Device.fence (F.device fs) c);
      let ns = Cpu.now c - t0 in
      Table.add_row t
        [
          label;
          Printf.sprintf "%.1f" (Exp_common.mb_per_s ~bytes:file_bytes ~ns);
          string_of_int (Counters.get (Vmem.counters vm) "mm.page_faults");
        ];
      Vmem.munmap vm region)
    [ ("hugepages", true); ("base pages only", false) ];
  t

(* B: data-journaling vs CoW overwrite cost. *)
let hybrid_atomicity setup =
  let t =
    Table.create
      ~title:"Ablation B: atomic 64KB overwrites — data journaling (aligned) vs CoW (holes)"
      ~columns:[ "backing"; "MB/s"; "journal-bytes"; "cow-bytes" ]
  in
  (* Registry deltas over the file system's life, format to last write,
     with the registry on whatever the caller set. *)
  let count name = Stats.Counter.get (Stats.Counter.v name) in
  let run label prepare =
    let was = Stats.enabled () in
    Stats.set_enabled true;
    Fun.protect ~finally:(fun () -> Stats.set_enabled was) @@ fun () ->
    let journal0 = count "fs.data_journal_bytes" and cow0 = count "fs.cow_bytes" in
    let dev = Device.create ~size:setup.Exp_common.device_bytes () in
    let fs = Fs.format dev (Exp_common.cfg setup) in
    let cpu = Cpu.make ~id:0 () in
    let fd = prepare fs cpu in
    let payload = String.make (64 * Units.kib) 'o' in
    let io = 16 * Units.mib * setup.Exp_common.scale in
    let spots = Fs.file_size fs fd / String.length payload in
    let rng = Rng.create 5 in
    let t0 = Cpu.now cpu in
    for _ = 1 to io / String.length payload do
      ignore
        (Fs.pwrite fs cpu fd ~off:(Rng.int rng spots * String.length payload) ~src:payload)
    done;
    let ns = Cpu.now cpu - t0 in
    Table.add_row t
      [
        label;
        Printf.sprintf "%.1f" (Exp_common.mb_per_s ~bytes:io ~ns);
        string_of_int (count "fs.data_journal_bytes" - journal0);
        string_of_int (count "fs.cow_bytes" - cow0);
      ]
  in
  run "aligned extents (journal)" (fun fs cpu ->
      let fd = Fs.create fs cpu "/aligned" in
      Fs.fallocate fs cpu fd ~off:0 ~len:(16 * Units.mib);
      fd);
  run "holes (copy-on-write)" (fun fs cpu ->
      let fd = Fs.create fs cpu "/holey" in
      (* Small interleaved appends land on sub-2MB hole extents. *)
      let fd2 = Fs.create fs cpu "/interleave" in
      let chunk = String.make (64 * Units.kib) 'h' in
      for _ = 1 to 16 * Units.mib / (64 * Units.kib) do
        ignore (Fs.append fs cpu fd ~src:chunk);
        ignore (Fs.append fs cpu fd2 ~src:chunk)
      done;
      Fs.close fs cpu fd2;
      fd);
  t

(* C: journal-count sweep on the scalability workload. *)
let journal_sweep setup =
  let t =
    Table.create ~title:"Ablation C: WineFS per-CPU journal count (16-thread Fig-10 workload)"
      ~columns:[ "journals"; "kops/s"; "lock-wait-ms" ]
  in
  List.iter
    (fun cpus ->
      let make () =
        let dev = Device.create ~size:setup.Exp_common.device_bytes () in
        Registry.winefs.make dev (Types.config ~cpus ~inodes_per_cpu:8192 ())
      in
      let p =
        W.scalability make ~threads:16 ~files_per_thread:(4 * setup.Exp_common.scale)
          ~appends_per_file:(16 * setup.Exp_common.scale)
      in
      Table.add_row t
        [
          string_of_int cpus;
          Printf.sprintf "%.1f" p.kops_per_s;
          Printf.sprintf "%.2f" (float_of_int p.lock_wait_ns /. 1e6);
        ])
    [ 1; 2; 4; 8; 16 ];
  t

(* D: NUMA placement: local (policy-routed) vs remote writes. *)
let numa setup =
  let t =
    Table.create ~title:"Ablation D: NUMA write placement (2 nodes)"
      ~columns:[ "placement"; "MB/s" ]
  in
  let dev = Device.create ~numa_nodes:2 ~size:setup.Exp_common.device_bytes () in
  let bytes = 32 * Units.mib * setup.Exp_common.scale in
  let payload = Bytes.make (64 * Units.kib) 'n' in
  let stripe = Device.size dev / 2 in
  let bench ~node ~base =
    let cpu = Cpu.make ~id:0 ~node () in
    let t0 = Cpu.now cpu in
    Device.with_site dev site_numa_stream (fun () ->
        for i = 0 to (bytes / Bytes.length payload) - 1 do
          Device.write_nt dev cpu
            ~off:(base + (i * Bytes.length payload))
            ~src:payload ~src_off:0 ~len:(Bytes.length payload)
        done;
        Device.fence dev cpu);
    Exp_common.mb_per_s ~bytes ~ns:(Cpu.now cpu - t0)
  in
  (* The policy homes the writer on its own node; the ablation forces the
     allocation to the other node's stripe. *)
  let policy = Winefs.Numa_policy.create ~nodes:2 ~node_free:(fun n -> if n = 0 then 2 else 1) in
  let home = Winefs.Numa_policy.home policy ~pid:1 in
  Table.add_float_row t "home-node writes (policy)" [ bench ~node:home ~base:(home * stripe) ];
  Table.add_float_row t "remote-node writes" [ bench ~node:home ~base:((1 - home) * stripe) ];
  t

let run ?(scale = 1) () =
  let setup = Exp_common.make ~scale () in
  [ huge_onoff setup; hybrid_atomicity setup; journal_sweep setup; numa setup ]
