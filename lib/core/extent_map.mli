(** Extent-map layer: the per-file record/slot run map plus the dedicated
    metadata-block pool (§3.3 "Layout: containing fragmentation" — small
    metadata is recycled in place in its own region and never breaks up
    data-area aligned extents; §2.2 gives the hugepage condition
    {!chunk_huge_phys} checks).

    Mutations ({!add_record}, {!remove_records}) persist extent slots
    through {!Inode} inside the caller's {!Txn} transaction; pure lookups
    ({!lookup_run}, {!next_mapped}) need only the {!Inode.file}.  Record
    removal is budgeted so journal transactions stay bounded —
    {!remove_records_batched} runs its own bounded transactions, freeing
    extents as each commits. *)

open Repro_util

type t

val create :
  dev:Repro_pmem.Device.t -> layout:Layout.t -> txns:Txn.t -> inodes:Inode.t ->
  alloc:Repro_alloc.Aligned_alloc.t -> t

(* -- Metadata-block pool (dedicated region, hole-pool fallback) -- *)

val seed_meta_pool : t -> unit
(** Format: the whole metadata region is free. *)

val add_meta_free : t -> off:int -> len:int -> unit
(** Mount: return one free run of the metadata region (rebuilt by the
    scan). *)

val zeroed_meta_block : t -> Cpu.t -> int
(** One 4K metadata block (from the region, else the hole pool) +
    initialize-then-publish: the fresh block is
    zeroed and persisted while still unreachable (dentry blocks,
    extent-overflow blocks). *)

(* -- Record map -- *)

val add_record :
  t -> Cpu.t -> Txn.txn -> Inode.file -> file_off:int -> phys:int -> len:int ->
  asrc:bool -> unit
(** Add a live extent, tail-merging with a contiguous same-provenance
    predecessor in the same per-CPU stripe (common for appends). *)

val remove_records :
  ?budget:int -> t -> Cpu.t -> Txn.txn -> Inode.file -> file_off:int -> len:int ->
  (int * int) list * bool
(** Remove record coverage of [file_off, file_off+len), at most [budget]
    records per call; returns the freed physical runs and whether
    coverage remains.  Boundary records are shrunk (or split) in
    place. *)

val remove_records_batched : t -> Cpu.t -> Inode.file -> file_off:int -> len:int -> unit
(** Remove an arbitrarily fragmented range in bounded journal
    transactions.  A crash mid-way can leave the tail of the removed
    range already gone — acceptable for truncation. *)

val free_file_space : t -> Inode.file -> unit
(** Free every data extent and overflow block (unlink/rmdir/rewrite). *)

(* -- Pure lookups -- *)

val lookup_run : Inode.file -> file_off:int -> (int * int) option
(** Physical address + remaining run length covering [file_off]. *)

val next_mapped : Inode.file -> file_off:int -> int option
(** First mapped offset at or after [file_off]. *)

val chunk_huge_phys : Inode.file -> chunk_off:int -> int option
(** The §2.2 hugepage condition for the 2MB chunk at [chunk_off]: a
    2MB-aligned physical run covering the whole chunk. *)
