(** The shared kernel-filesystem engine behind the ext4-DAX, xfs-DAX and
    PMFS personalities (and the kernel half of SplitFS).

    One block-based FS parameterised by a {!preset}: allocator policy,
    directory-index policy, journal flavour (JBD2-style redo vs PMFS-style
    fine-grained undo), eager-vs-fault-time zeroing, and the hugepage
    behaviours the paper distinguishes (§2.5, §5.1).  Each personality
    module is [include Basefs] plus its own preset, so the cross-system
    differences live in one record.

    The inode table, path walk, fd table and namespace operations are the
    shared {!Dram_ns}; this engine supplies only its {!payload} and its
    durability step — update the DRAM dentry, then journal the change.

    The interface deliberately exposes the concrete {!preset}, {!payload}
    and {!t} records: the personalities and SplitFS's user-space half
    reach into them (block maps, fd table, allocator through [t.ns])
    rather than duplicating the engine's state. *)

open Repro_util

(** How metadata updates reach the journal. *)
type journal_kind =
  | Jbd2_redo  (** global redo journal, stop-the-world commit at fsync *)
  | Pmfs_undo  (** fine-grained undo logging, committed per-operation *)

type preset = {
  label : string;
  alloc_cfg : Repro_alloc.Pool_alloc.config;
  dir_policy : Repro_vfs.Dir_index.policy;
  journal : journal_kind;
  zero_on_fallocate : bool;
  misaligned_start : bool;
      (** data area starts off 2MB alignment (legacy layouts, footnote 1) *)
  huge_fault_alloc : bool;  (** attempt a 2MB allocation on a PMD fault *)
  goal_alloc : bool;  (** pass the file's last extent as a locality goal *)
}

type journal =
  | Jredo of Repro_journal.Redo_journal.t
  | Jundo of Repro_journal.Undo_journal.t * Repro_sched.Sched.mutex

(** Per-inode state on top of the shared {!Dram_ns.file}. *)
type payload = {
  mutable unwritten : Repro_rbtree.Extent_tree.t option;
      (** fallocated-but-never-written file ranges; [None] until the
          first fallocate (most files never fallocate) *)
  mutable dirty_bytes : int;
  mutable goal : int;  (** physical end of the last allocation *)
  meta_addr : int;  (** synthetic PM address of this inode's metadata *)
}

type file = payload Dram_ns.file

type t = {
  dev : Repro_pmem.Device.t;
  cfg : Repro_vfs.Types.config;
  preset : preset;
  journal : journal;
  ns : payload Dram_ns.t;  (** inode table, fd table, allocator *)
}

(** {2 Lifecycle} *)

val format : preset -> Repro_pmem.Device.t -> Repro_vfs.Types.config -> t
val mount : Repro_pmem.Device.t -> Repro_vfs.Types.config -> t
val unmount : t -> Cpu.t -> unit
val recovery_ns : t -> int
val device : t -> Repro_pmem.Device.t
val config : t -> Repro_vfs.Types.config

(** {2 Engine internals used by the personalities}

    SplitFS's user-space half stages appends against the kernel FS's own
    block maps and allocator (through [t.ns]) and journals its relink. *)

val meta_sync : t -> Cpu.t -> addr:int -> bytes:int -> unit
(** Journal and persist a metadata update at [addr] immediately (undo
    flavour) or buffer it in the running transaction (redo flavour). *)

val clear_unwritten : file -> off:int -> len:int -> (int * int) list
(** Unflag [[off, off+len)], unzeroed; the [(lo, hi)] pieces that had it. *)

val zero_unwritten : file -> off:int -> len:int -> Bytes.t -> dst_off:int -> unit
(** Zero the unwritten file bytes [[off, off+len)] held from [dst_off]. *)

(** {2 The Fs_intf.S operations} *)

val mkdir : t -> Cpu.t -> string -> unit
val rmdir : t -> Cpu.t -> string -> unit
val create : t -> Cpu.t -> string -> int
val openf : t -> Cpu.t -> string -> Repro_vfs.Types.open_flags -> int
val close : t -> Cpu.t -> int -> unit
val unlink : t -> Cpu.t -> string -> unit
val rename : t -> Cpu.t -> old_path:string -> new_path:string -> unit
val readdir : t -> Cpu.t -> string -> string list
val stat : t -> Cpu.t -> string -> Repro_vfs.Types.stat
val exists : t -> Cpu.t -> string -> bool
val pwrite : t -> Cpu.t -> int -> off:int -> src:string -> int
val pwrite_sub : t -> Cpu.t -> int -> off:int -> src:string -> src_off:int -> len:int -> int
val pread : t -> Cpu.t -> int -> off:int -> len:int -> string
val append : t -> Cpu.t -> int -> src:string -> int
val fsync : t -> Cpu.t -> int -> unit
val fallocate : t -> Cpu.t -> int -> off:int -> len:int -> unit
val ftruncate : t -> Cpu.t -> int -> int -> unit
val file_size : t -> int -> int
val mmap_backing : t -> int -> Repro_memsim.Vmem.backing
val set_xattr_align : t -> Cpu.t -> string -> bool -> unit
val statfs : t -> Repro_vfs.Types.fs_stats
val file_extents : t -> Cpu.t -> string -> (int * int * int) list
