(** P-ART: persistent adaptive radix tree (§5.4, Figure 8).

    The paper's P-ART pre-faults a PM pool (vmmalloc-style: one big
    memory-mapped file), inserts 60M keys, then measures the latency
    distribution of lookups over a hot set of 125K keys.  Lookups never
    fault — the figure isolates TLB reach and the cache pollution of page
    table entries (§2.4): with base pages the PTE working set evicts the
    hot nodes from the LLC and median latency is several times higher.

    This is a real (fixed-fanout) radix tree living in the mapped pool:
    four levels of 256-way nodes over 32-bit keys, 8B slots, values inline
    in the leaves.  Lookups are dependent pointer chases through the
    mapping, exactly the access pattern whose latency CDF Figure 8
    plots. *)

open Repro_util
open Repro_vfs
module Vmem = Repro_memsim.Vmem

type t = {
  vm : Vmem.t;
  region : Vmem.region;
  node_bytes : int;
  mutable next_node : int; (* bump allocator, in node units *)
  pool_nodes : int;
  root : int;
}

let levels = 4
let fanout = 256

let create (Fs_intf.Handle ((module F), fs)) ?(path = "/part.pool")
    ?(pool_bytes = 48 * Units.mib) () =
  let cpu = Cpu.make ~id:0 () in
  let fd = F.create fs cpu path in
  (* vmmalloc pool: preallocated, mapped, pre-faulted at initialisation. *)
  F.fallocate fs cpu fd ~off:0 ~len:pool_bytes;
  let vm = Vmem.create (F.device fs) in
  let region = Vmem.mmap vm ~len:pool_bytes ~backing:(F.mmap_backing fs fd) () in
  Vmem.prefault vm cpu region;
  F.close fs cpu fd;
  let node_bytes = fanout * 8 in
  let t =
    {
      vm;
      region;
      node_bytes;
      next_node = 0;
      pool_nodes = pool_bytes / node_bytes;
      root = 0;
    }
  in
  (* Allocate + zero the root. *)
  t.next_node <- 1;
  Vmem.fill t.vm cpu t.region ~off:0 ~len:node_bytes '\000';
  t

exception Pool_full

let alloc_node t cpu =
  if t.next_node >= t.pool_nodes then raise Pool_full;
  let n = t.next_node in
  t.next_node <- n + 1;
  Vmem.fill t.vm cpu t.region ~off:(n * t.node_bytes) ~len:t.node_bytes '\000';
  n

let slot_off t node byte = (node * t.node_bytes) + (byte * 8)

(* Values are tagged with a high bit so a leaf slot is distinguishable
   from a child node index. *)
let value_tag = Int64.shift_left 1L 62

let insert t cpu ~key ~value =
  let node = ref t.root in
  for level = levels - 1 downto 1 do
    let byte = (key lsr (level * 8)) land 0xFF in
    let off = slot_off t !node byte in
    let child = Vmem.read_u64 t.vm cpu t.region ~off in
    if child = 0L then begin
      let fresh = alloc_node t cpu in
      Vmem.write_u64 t.vm cpu t.region ~off (Int64.of_int fresh);
      Vmem.persist t.vm cpu t.region ~off ~len:8;
      node := fresh
    end
    else node := Int64.to_int child
  done;
  let off = slot_off t !node (key land 0xFF) in
  Vmem.write_u64 t.vm cpu t.region ~off (Int64.logor value_tag (Int64.of_int value));
  Vmem.persist t.vm cpu t.region ~off ~len:8

let lookup t cpu ~key =
  let node = ref t.root in
  let result = ref None in
  (try
     for level = levels - 1 downto 1 do
       let byte = (key lsr (level * 8)) land 0xFF in
       let child = Vmem.read_u64 t.vm cpu t.region ~off:(slot_off t !node byte) in
       if child = 0L then raise Exit;
       node := Int64.to_int child
     done;
     let v = Vmem.read_u64 t.vm cpu t.region ~off:(slot_off t !node (key land 0xFF)) in
     if Int64.logand v value_tag <> 0L then
       result := Some (Int64.to_int (Int64.logand v (Int64.sub value_tag 1L)))
   with Exit -> ());
  !result

type cdf_result = {
  lookups : int;
  hist : Histogram.t;
  tlb_misses : int;
  llc_misses : int;
}

(* The Figure 8 experiment: insert [keys], then time [lookups] random
   lookups over a [hot_set]-sized subset. *)
let lookup_latency_cdf t ?(seed = 4242) ~keys ~hot_set ~lookups () =
  let cpu = Cpu.make ~id:0 () in
  let rng = Rng.create seed in
  (* Spread keys over the 32-bit space so node paths diverge. *)
  let key_of i = i * 2654435761 land 0xFFFFFFFF in
  (try
     for i = 0 to keys - 1 do
       insert t cpu ~key:(key_of i) ~value:i
     done
   with Pool_full -> ());
  let hot = Array.init hot_set (fun _ -> key_of (Rng.int rng keys)) in
  let hist = Histogram.create () in
  let c = Vmem.counters t.vm in
  let tlb0 = Counters.get c "mm.tlb_misses" and llc0 = Counters.get c "mm.llc_misses" in
  for _ = 1 to lookups do
    let key = hot.(Rng.int rng hot_set) in
    let t0 = Cpu.now cpu in
    ignore (lookup t cpu ~key);
    Histogram.add hist (Cpu.now cpu - t0)
  done;
  {
    lookups;
    hist;
    tlb_misses = Counters.get c "mm.tlb_misses" - tlb0;
    llc_misses = Counters.get c "mm.llc_misses" - llc0;
  }

let vm_counters t = Vmem.counters t.vm
