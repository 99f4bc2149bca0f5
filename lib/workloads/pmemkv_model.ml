(** PmemKV-like key-value store (§5.4, Figure 7c).

    Intel's PmemKV (cmap engine) stores data in a PM pool built from
    128MB files: the pool is created with [fallocate] and extended by
    creating more files — also [fallocate]d — as it fills.  The paper's
    fillseq workload inserts 4KB values sequentially with 16 threads.

    The file-system-visible behaviours: pool files are preallocated (so
    whether faults are cheap depends on who zeroes — NOVA/WineFS zero at
    fallocate, ext4 zeroes at fault) and large (so hugepage eligibility is
    purely an allocator-alignment question). *)

open Repro_util
open Repro_vfs
module Vmem = Repro_memsim.Vmem
module Sched = Repro_sched.Sched

type pool = { region : Vmem.region }

type t = {
  h : Fs_intf.handle;
  vm : Vmem.t;
  pool_bytes : int;
  value_bytes : int;
  mutable pools : pool array;
  mutable tail : int; (* global offset across pools *)
  lock : Sched.mutex;
  index : (int, int) Hashtbl.t; (* key -> global offset *)
}

let create (Fs_intf.Handle ((module F), fs) as h) ?(dir = "/pmemkv")
    ?(pool_bytes = 16 * Units.mib) ?(value_bytes = 4096) () =
  let cpu = Cpu.make ~id:0 () in
  if not (F.exists fs cpu dir) then F.mkdir fs cpu dir;
  {
    h;
    vm = Vmem.create (F.device fs);
    pool_bytes;
    value_bytes;
    pools = [||];
    tail = 0;
    lock = Sched.create_mutex ~name:"pmemkv_model:t.lock" ();
    index = Hashtbl.create 4096;
  }

let dir_of t =
  ignore t;
  "/pmemkv"

let extend_pool t cpu =
  let (Fs_intf.Handle ((module F), fs)) = t.h in
  let n = Array.length t.pools in
  let path = Printf.sprintf "%s/pool%04d" (dir_of t) n in
  let fd = F.create fs cpu path in
  F.fallocate fs cpu fd ~off:0 ~len:t.pool_bytes;
  let region = Vmem.mmap t.vm ~len:t.pool_bytes ~backing:(F.mmap_backing fs fd) () in
  F.close fs cpu fd;
  t.pools <- Array.append t.pools [| { region } |]

let record_bytes t = 16 + t.value_bytes

let put t cpu ~key =
  Sched.with_lock t.lock (fun () ->
      let rb = record_bytes t in
      (* Extend with a fresh fallocated pool file when full. *)
      let pool_idx = t.tail / t.pool_bytes in
      let pool_idx, off =
        if (t.tail mod t.pool_bytes) + rb > t.pool_bytes then begin
          t.tail <- (pool_idx + 1) * t.pool_bytes;
          (pool_idx + 1, t.tail mod t.pool_bytes)
        end
        else (pool_idx, t.tail mod t.pool_bytes)
      in
      while pool_idx >= Array.length t.pools do
        extend_pool t cpu
      done;
      let r = t.pools.(pool_idx).region in
      Vmem.write_u64 t.vm cpu r ~off (Int64.of_int key);
      Vmem.write_u64 t.vm cpu r ~off:(off + 8) (Int64.of_int t.value_bytes);
      Vmem.fill t.vm cpu r ~off:(off + 16) ~len:t.value_bytes 'p';
      Vmem.persist t.vm cpu r ~off ~len:rb;
      Hashtbl.replace t.index key t.tail;
      t.tail <- t.tail + rb)

let get t cpu ~key =
  match Hashtbl.find_opt t.index key with
  | Some goff ->
      let r = t.pools.(goff / t.pool_bytes).region in
      Vmem.read t.vm cpu r ~off:(goff mod t.pool_bytes) ~len:(record_bytes t);
      true
  | None -> false

type result = {
  keys : int;
  elapsed_ns : int;
  kops_per_s : float;
  page_faults : int;
  huge_faults : int;
}

(* fillseq with [threads] concurrent inserters (cmap concurrent engine). *)
let fillseq t ~threads ~keys =
  let next = ref 0 in
  let stats =
    Sched.run ~threads (fun cpu ->
        let continue_run = ref true in
        while !continue_run do
          (* Claim the next key (the DRAM-side atomic is effectively free
             next to the PM work). *)
          let k = !next in
          if k >= keys then continue_run := false
          else begin
            next := k + 1;
            put t cpu ~key:k
          end
        done)
  in
  let c = Vmem.counters t.vm in
  {
    keys;
    elapsed_ns = stats.makespan_ns;
    kops_per_s =
      (if stats.makespan_ns = 0 then 0.
       else float_of_int keys /. (float_of_int stats.makespan_ns /. 1e9) /. 1000.);
    page_faults = Counters.get c "mm.page_faults";
    huge_faults = Counters.get c "mm.huge_faults";
  }
