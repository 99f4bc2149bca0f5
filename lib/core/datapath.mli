(** Data path: hybrid data atomicity (§3.5 "Data Atomicity: Hybrid
    Techniques") plus allocation of file data (§3.2 alignment-aware
    allocation) and zeroing.

    Strict-mode overwrites journal aligned-pool extents in place and
    copy-on-write hole extents — keyed on the record's provenance bit.
    Whole 2MB file chunks get aligned extents so they stay
    hugepage-mappable; writes that fit one journal transaction are atomic
    as a unit, larger ones fall back to a sequence of bounded
    transactions.  Also owns the hugepage-serving page-fault path (§3.6):
    faults on holes allocate whole aligned extents so the chunk maps as a
    hugepage.

    Callers (the {!Fs} facade) do fd lookup, permission checks, stats
    spans and the EROFS guard; every operation here takes the
    {!Inode.file} directly and handles its own locking, journaling and
    byte counters. *)

open Repro_util
module Types = Repro_vfs.Types
module Vmem = Repro_memsim.Vmem

type t

val create :
  dev:Repro_pmem.Device.t -> cfg:Types.config -> txns:Txn.t -> inodes:Inode.t ->
  map:Extent_map.t -> alloc:Repro_alloc.Aligned_alloc.t ->
  faults:Repro_vfs.Degraded.tally -> t

val pwrite : t -> Cpu.t -> Inode.file -> off:int -> src:string -> src_off:int -> len:int -> int
val pread : t -> Cpu.t -> Inode.file -> off:int -> len:int -> string
val fsync : t -> Cpu.t -> Inode.file -> unit
(** Strict mode is synchronous: nothing to do.  Relaxed mode flushes the
    file's dirty data (modelled as flush cost over the dirty volume). *)

val fallocate : t -> Cpu.t -> Inode.file -> off:int -> len:int -> unit
(** Zeroes at allocation time so page faults only build mappings (§5.4). *)

val ftruncate : t -> Cpu.t -> Inode.file -> int -> unit
val truncate_on_open : t -> Cpu.t -> Inode.file -> unit
(** The [O_TRUNC] path: drop the contents in bounded transactions. *)

val fault :
  t -> read_only:(unit -> bool) -> enqueue:(int -> unit) -> int -> Vmem.backing
(** The hugepage-aware fault handler for the file with the given inode
    number (§3.6): aligned 2MB-covered chunks map as hugepages; covered
    but fragmented chunks fall back to base pages and [enqueue] the file
    for reactive rewriting; holes allocate at fault time (a whole
    aligned extent when possible) unless the mount is degraded. *)
