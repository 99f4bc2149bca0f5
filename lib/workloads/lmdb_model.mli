(** LMDB-like memory-mapped B-tree database (§5.4, Figure 7b).

    Reproduces the access pattern the paper traces LMDB's file-system
    sensitivity to: one big {e sparse} data file created with [ftruncate]
    (on-demand allocation at page-fault time), copy-on-write pages, and a
    meta-page flip per committed batch.  See the implementation header for
    the full rationale. *)

open Repro_vfs

type t

val create :
  Fs_intf.handle -> ?path:string -> ?map_bytes:int -> ?value_bytes:int -> unit -> t

exception Full
(** The CoW frontier reached the end of the map. *)

type result = {
  keys : int;
  elapsed_ns : int;
  kops_per_s : float;
  page_faults : int;
  huge_faults : int;
}

val fillseqbatch : t -> ?batch:int -> keys:int -> unit -> result
(** db_bench's fillseqbatch: sequential keys committed in batches — LMDB's
    best-performing workload (§5.4). *)

val read : t -> Repro_util.Cpu.t -> key:int -> bool
