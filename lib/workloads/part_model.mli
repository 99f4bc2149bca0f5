(** P-ART: persistent radix tree in a pre-faulted memory-mapped pool
    (§5.4, Figure 8).  A real fixed-fanout radix tree (four 256-way levels
    over 32-bit keys); lookups are dependent pointer chases through the
    mapping — the access pattern whose latency CDF Figure 8 plots. *)

open Repro_vfs

type t

val create : Fs_intf.handle -> ?path:string -> ?pool_bytes:int -> unit -> t
(** Creates, preallocates, maps and pre-faults the pool (vmmalloc-style). *)

exception Pool_full

val insert : t -> Repro_util.Cpu.t -> key:int -> value:int -> unit
val lookup : t -> Repro_util.Cpu.t -> key:int -> int option

type cdf_result = {
  lookups : int;
  hist : Repro_util.Histogram.t;
  tlb_misses : int;
  llc_misses : int;
}

val lookup_latency_cdf :
  t -> ?seed:int -> keys:int -> hot_set:int -> lookups:int -> unit -> cdf_result
(** The Figure 8 experiment: bulk-insert [keys], then time random lookups
    over a [hot_set]-sized subset. *)

val vm_counters : t -> Repro_util.Counters.t
