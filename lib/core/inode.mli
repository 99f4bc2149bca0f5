(** Inode layer: on-PM inode tables in the fixed per-CPU metadata regions
    (§3.3 "Layout: containing fragmentation", Figure 5).

    Owns inode addressing ({!inode_addr}, extent slot addresses),
    header / size / extent-slot persistence (all journaled through
    {!Txn}), CRC-checked
    loading and the mount-time table scan (§3.6, the scrub refuses — never
    reuses — corrupt headers), per-CPU free inode stacks, and the DRAM
    inode cache itself: {!file} is the in-memory inode every other layer
    operates on.  After a mount, a regular file's {!file} is built on its
    first lookup. *)

open Repro_util
module Types = Repro_vfs.Types
module Dir_index = Repro_vfs.Dir_index
module Sched = Repro_sched.Sched
module Int_map = Repro_rbtree.Ordmap.Int_map

(** One live extent record: a slot in the inode's persistent extent list
    (inline slots, then overflow blocks) plus its mapping.  [asrc]
    remembers whether the extent came from the aligned pool — the hybrid
    data-atomicity policy (§3.5) journals aligned-pool extents and
    copies-on-write hole extents, keyed on provenance, not incidental
    alignment. *)
type record = { slot : int; phys : int; len : int; asrc : bool }

type file = {
  ino : int;
  mutable kind : Types.file_kind;
  mutable size : int;
  mutable nlink : int;
  mutable xattr_align : bool;
  mutable parent : int;  (** directory containing this node (DRAM only) *)
  mutable dname : string;  (** name under [parent] (DRAM only) *)
  records : record Int_map.t;  (** file_off -> record, non-overlapping *)
  mutable free_slots : int list;
      (** top of the free extent-slot stack; edited only by {!take_slot},
          {!release_slot} and {!add_overflow_block} *)
  mutable free_inline : int;
      (** bottom of that stack: the inline slots the mount found free, as a
          bitmask, handed out highest first *)
  mutable slot_cap : int;  (** slots available without a new overflow block *)
  mutable overflow : int list;  (** overflow block phys addrs, chain order *)
  mutable dir : Dir_index.t option;  (** dirs: name -> (ino, dentry slot phys) *)
  mutable free_dentries : int list;  (** dirs: free dentry slot phys offsets *)
  lock : Sched.mutex;
  mutable dirty_bytes : int;  (** relaxed mode: unflushed data *)
}

type t

val create : dev:Repro_pmem.Device.t -> layout:Layout.t -> txns:Txn.t -> t

(* -- Addressing -- *)

val inode_addr : t -> int -> int
(** Physical offset of an inode record by global inode number. *)

(* -- Persistence (all journaled via {!Txn.meta_write}) -- *)

val persist_header : t -> Cpu.t -> Txn.txn -> file -> unit
val persist_invalid : t -> Cpu.t -> Txn.txn -> file -> unit
(** Persist the header with [valid = false]: the journaled inode kill used
    by unlink / rmdir / rename-over / rewrite. *)

val persist_size : t -> Cpu.t -> Txn.txn -> file -> unit
(** Size-only update: fine-grained journaling that keeps the append path
    cheap (§3.5) — two 8-byte in-place writes (size + checksum words),
    not a full header re-journal. *)

val persist_slot :
  t -> Cpu.t -> Txn.txn -> file -> slot:int -> file_off:int -> phys:int -> len:int ->
  asrc:bool -> unit

val clear_slot : t -> Cpu.t -> Txn.txn -> file -> int -> unit
(** Zero an extent slot (record fully removed). *)

val init_slots : t -> Cpu.t -> int -> unit
(** Zero a freshly-allocated inode's inline extent slots before its header
    becomes valid, so a later mount cannot resurrect a previous owner's
    records as ghosts. *)

(* -- DRAM inode cache -- *)

val install : t -> int -> Types.file_kind -> file
(** Create and register a fresh in-memory inode. *)

val find : t -> int -> file
(** Raises [EIO] for scrub-refused inodes, [EBADF] for stale ones.  After
    a mount, a regular file's DRAM inode is built here (or in
    {!find_opt}) the first time it is asked for, from the state the scan
    decoded; the result is the inode an eager load would have built,
    mutex id included.  Building it is a cache fill behind the read: the
    race detector sees only this read of [fs.files]. *)

val find_opt : t -> int -> file option
(** {!find} without the refusal check, the race annotation or the
    errors: [None] for an inode that is neither loaded nor pending. *)

val forget : t -> site:string -> int -> unit
(** Drop an inode from the cache, pending or not. *)

val set_name : t -> int -> parent:int -> name:string -> unit
(** The directory pass found inode [ino] as [name] in directory [parent]:
    record both on its DRAM inode, or on its descriptor while it is
    pending, without building it.  A no-op for unknown inodes. *)

(* -- Free extent slots -- *)

(** A file's free extent slots form one stack.  After a mount it holds
    every non-live slot in descending order: the overflow blocks' free
    slots (a list, built only for files with an overflow chain) above
    the inline ones (a bitmask).  A released slot is pushed on top; a
    fresh overflow block's slots come out lowest first.  A file never
    mounted hands out its inline slots in ascending order. *)

val take_slot : file -> int
(** Pop the next free slot, or [-1] when the inline slots and every
    overflow block are full and the caller must add a block. *)

val release_slot : file -> int -> unit
(** Push the slot of a record that was removed: it is taken next. *)

val add_overflow_block : file -> int -> int
(** Append the overflow block at [blk] to the chain and return its first
    slot, taken; the block's other slots are pushed lowest on top.  The
    caller journals the chain link. *)

(* -- Inode number allocation (per-CPU free stacks with stealing) -- *)

val alloc_ino : t -> Cpu.t -> int option
(** Pop the local CPU's free stack, else steal from the others in CPU
    order.  After {!init_free} or a mount the lowest free idx is on top. *)

val release_ino : t -> int -> unit
(** Push the freed idx on its CPU's stack: it is handed out next. *)

val init_free : t -> unit
(** Format-time free stacks: every slot free except root's (cpu 0, idx 0). *)

(* -- Scrub bookkeeping -- *)

val refuse : t -> int -> string -> unit
val is_bad : t -> int -> bool
val refused : t -> int

(* -- Mount-time loading (§3.6 recovery scan) -- *)

val scan_tables :
  t -> Cpu.t -> on_refuse:(int -> string -> unit) -> file list * Repro_alloc.Aligned_alloc.used
(** Scan the per-CPU inode tables of a fresh [t] (parallel in the paper;
    the simulated cost model charges the reads), rebuilding the per-CPU
    free stacks and decoding every valid inode's header, overflow chain
    and extent slots into a flat descriptor.  Directories are built at
    once; a regular file is built by its first {!find} or {!find_opt}, and
    its lock keeps the id it would have had if built here (ids are
    reserved in scan order).  Corrupt or unreadable headers are refused
    via [on_refuse] (and recorded, see {!is_bad}), as is an inode whose
    extent metadata cannot be read.  Returns the directories, for the
    directory pass, and the used physical extents (data runs + overflow
    blocks), for the allocator rebuild, both in table order: CPU by CPU,
    ascending table index. *)

val split_used :
  t -> Repro_alloc.Aligned_alloc.used -> meta:Repro_rbtree.Extent_tree.t ->
  Repro_alloc.Aligned_alloc.used
(** Walk {!scan_tables}' used extents in table order: claim each extent
    in the metadata pool from [meta] (raising [EINVAL] on a block claimed
    twice) and return the data extents in that same order, the input of
    {!Repro_alloc.Aligned_alloc.free_lists_of_used}.  Reuses (and so
    consumes) the result's array. *)
