open Repro_util
open Repro_vfs
module Vmem = Repro_memsim.Vmem
module Device = Repro_pmem.Device
module Site = Repro_pmem.Site

(* Durability-lint site: the mmap workloads' application-level final
   flush+fence (PM-native persistence, outside any FS call). *)
let site_mmap_flush = Site.v "micro" "mmap_flush"

type rw_result = {
  bytes : int;
  elapsed_ns : int;
  mb_per_s : float;
  page_faults : int;
  tlb_misses : int;
  fault_ns : int;
}

let mk_result ~bytes ~elapsed_ns ~vm_counters =
  let g k = match vm_counters with Some c -> Counters.get c k | None -> 0 in
  {
    bytes;
    elapsed_ns;
    mb_per_s =
      (if elapsed_ns = 0 then 0.
       else float_of_int bytes /. float_of_int Units.mib /. (float_of_int elapsed_ns /. 1e9));
    page_faults = g "mm.page_faults";
    tlb_misses = g "mm.tlb_misses";
    fault_ns = g "mm.fault_ns";
  }

(* Materialise the benchmark file with large writes (2MB chunks) so the
   measurement sees a steady-state file: no unwritten-extent zeroing in
   the timed region, and allocation happens through the large-request
   path as a real benchmark setup would. *)
let ensure_file (Fs_intf.Handle ((module F), fs)) cpu ~path ~file_bytes =
  let fd =
    if F.exists fs cpu path then F.openf fs cpu path Types.o_rdwr else F.create fs cpu path
  in
  if F.file_size fs fd < file_bytes then begin
    let chunk = String.make Units.huge_page 'i' in
    let off = ref (Units.round_down (F.file_size fs fd) Units.huge_page) in
    while !off < file_bytes do
      let n = min Units.huge_page (file_bytes - !off) in
      let src = if n = Units.huge_page then chunk else String.sub chunk 0 n in
      ignore (F.pwrite fs cpu fd ~off:!off ~src);
      off := !off + n
    done
  end;
  fd

let mmap_rw (Fs_intf.Handle ((module F), fs) as h) ?(seed = 7) ~path ~file_bytes ~io_bytes
    ~chunk ~mode () =
  let cpu = Cpu.make ~id:0 () in
  let rng = Rng.create seed in
  let fd = ensure_file h cpu ~path ~file_bytes in
  let vm = Vmem.create (F.device fs) in
  let region = Vmem.mmap vm ~len:file_bytes ~backing:(F.mmap_backing fs fd) () in
  let chunks = file_bytes / chunk in
  let payload = String.make chunk 'm' in
  let t0 = Cpu.now cpu in
  let done_ = ref 0 and pos = ref 0 in
  while !done_ < io_bytes do
    let off =
      match mode with
      | `Seq_write | `Seq_read ->
          let o = !pos * chunk in
          pos := (!pos + 1) mod chunks;
          o
      | `Rand_write | `Rand_read -> Rng.int rng chunks * chunk
    in
    (match mode with
    | `Seq_write | `Rand_write -> Vmem.write vm cpu region ~off ~src:payload
    | `Seq_read | `Rand_read -> Vmem.read vm cpu region ~off ~len:chunk);
    done_ := !done_ + chunk
  done;
  (* PM-native applications persist with a final flush + fence. *)
  (match mode with
  | `Seq_write | `Rand_write ->
      Device.with_site (F.device fs) site_mmap_flush (fun () -> Device.fence (F.device fs) cpu)
  | `Seq_read | `Rand_read -> ());
  let elapsed = Cpu.now cpu - t0 in
  F.close fs cpu fd;
  let r = mk_result ~bytes:io_bytes ~elapsed_ns:elapsed ~vm_counters:(Some (Vmem.counters vm)) in
  Vmem.munmap vm region;
  r

let syscall_rw (Fs_intf.Handle ((module F), fs) as h) ?(seed = 7) ?(fsync_every = 10) ~path
    ~file_bytes ~io_bytes ~chunk ~mode () =
  let cpu = Cpu.make ~id:0 () in
  let rng = Rng.create seed in
  let fd =
    match mode with
    | `Seq_write ->
        (* Append pattern: start from an empty file (§5.3). *)
        if F.exists fs cpu path then begin
          let fd = F.openf fs cpu path { Types.o_rdwr with trunc = true } in
          fd
        end
        else F.create fs cpu path
    | `Rand_write | `Seq_read | `Rand_read -> ensure_file h cpu ~path ~file_bytes
  in
  (* In-place and read modes need populated data. *)
  (match mode with
  | `Rand_write | `Seq_read | `Rand_read ->
      if F.file_size fs fd < file_bytes then F.fallocate fs cpu fd ~off:0 ~len:file_bytes
  | `Seq_write -> ());
  let chunks = max 1 (file_bytes / chunk) in
  let payload = String.make chunk 's' in
  let t0 = Cpu.now cpu in
  let done_ = ref 0 and pos = ref 0 and ops = ref 0 in
  while !done_ < io_bytes do
    let off =
      match mode with
      | `Seq_write -> !done_ mod file_bytes
      | `Seq_read ->
          let o = !pos * chunk in
          pos := (!pos + 1) mod chunks;
          o
      | `Rand_write | `Rand_read -> Rng.int rng chunks * chunk
    in
    (match mode with
    | `Seq_write | `Rand_write ->
        ignore (F.pwrite fs cpu fd ~off ~src:payload);
        incr ops;
        if !ops mod fsync_every = 0 then F.fsync fs cpu fd
    | `Seq_read | `Rand_read -> ignore (F.pread fs cpu fd ~off ~len:chunk));
    done_ := !done_ + chunk
  done;
  (match mode with `Seq_write | `Rand_write -> F.fsync fs cpu fd | _ -> ());
  let elapsed = Cpu.now cpu - t0 in
  F.close fs cpu fd;
  mk_result ~bytes:io_bytes ~elapsed_ns:elapsed ~vm_counters:None

let mmap_write_2mb_file (Fs_intf.Handle ((module F), fs)) ~path ~huge_ok =
  let cpu = Cpu.make ~id:0 () in
  let fd = F.create fs cpu path in
  F.fallocate fs cpu fd ~off:0 ~len:Units.huge_page;
  let vm = Vmem.create (F.device fs) in
  let region = Vmem.mmap vm ~len:Units.huge_page ~backing:(F.mmap_backing fs fd) ~huge_ok () in
  let payload = String.make (64 * Units.kib) 'w' in
  let t0 = Cpu.now cpu in
  for i = 0 to (Units.huge_page / String.length payload) - 1 do
    Vmem.write vm cpu region ~off:(i * String.length payload) ~src:payload
  done;
  Device.with_site (F.device fs) site_mmap_flush (fun () -> Device.fence (F.device fs) cpu);
  let total = Cpu.now cpu - t0 in
  let c = Vmem.counters vm in
  let r = (total, Counters.get c "mm.fault_ns", Counters.get c "mm.page_faults") in
  Vmem.munmap vm region;
  F.close fs cpu fd;
  r

type scalability_point = { threads : int; kops_per_s : float; lock_wait_ns : int }

let scalability make_fs ~threads ~files_per_thread ~appends_per_file =
  let (Fs_intf.Handle ((module F), fs)) = make_fs () in
  let setup = Cpu.make ~id:0 () in
  for i = 0 to threads - 1 do
    F.mkdir fs setup (Printf.sprintf "/t%d" i)
  done;
  let payload = String.make Units.base_page 'k' in
  let ops = ref 0 in
  let stats =
    Repro_sched.Sched.run ~threads (fun cpu ->
        for file = 0 to files_per_thread - 1 do
          let path = Printf.sprintf "/t%d/f%d" cpu.Cpu.id file in
          let fd = F.create fs cpu path in
          for _ = 1 to appends_per_file do
            ignore (F.append fs cpu fd ~src:payload);
            F.fsync fs cpu fd;
            ops := !ops + 2
          done;
          F.close fs cpu fd;
          F.unlink fs cpu path;
          ops := !ops + 2
        done)
  in
  {
    threads;
    kops_per_s =
      (if stats.makespan_ns = 0 then 0.
       else float_of_int !ops /. (float_of_int stats.makespan_ns /. 1e9) /. 1000.);
    lock_wait_ns = stats.lock_wait_ns;
  }
