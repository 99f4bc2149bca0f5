(** Namespace layer: path resolution, on-PM directory entries and the
    journaled namespace operations (§3.4 metadata journaling — create,
    unlink, rmdir, rename are each one undo-journal transaction; §3.3 —
    dentry blocks come from the dedicated metadata region).

    A directory's data blocks are arrays of 64B dentry slots, indexed in
    DRAM by {!Repro_vfs.Dir_index}; this module is the only core layer
    that touches [Dir_index] (enforced by @archcheck).  The {!Fs} facade
    wraps each operation with its stats span, syscall cost and EROFS
    guard; the reactive rewriter re-points dentries through
    {!rewrite_dentry_slot} / {!write_dentry} / {!retarget_index} without
    ever seeing the directory structures. *)

open Repro_util

type t

val create :
  dev:Repro_pmem.Device.t -> txns:Txn.t -> inodes:Inode.t -> map:Extent_map.t -> t

val root_ino : int

val resolve : t -> Cpu.t -> string -> int
(** Walk a path to an inode number ([ENOENT]/[ENOTDIR] on failure). *)

val mkdir : t -> Cpu.t -> string -> unit
val create_file : t -> Cpu.t -> string -> Inode.file
(** Journaled creation of an inode + dentry under the parent's lock
    (create and the [O_CREAT] open path share this). *)

val unlink : t -> Cpu.t -> string -> unit
val rmdir : t -> Cpu.t -> string -> unit
val rename : t -> Cpu.t -> old_path:string -> new_path:string -> unit
val readdir : t -> Cpu.t -> string -> string list

val load_dir_index : t -> Cpu.t -> Inode.file -> unit
(** Mount: rebuild a directory's DRAM index (and its children's
    parent/name backpointers) from its dentry blocks. *)

(* -- Rewriter support (§3.6 atomic swap) -- *)

val rewrite_dentry_slot : t -> Cpu.t -> parent:Inode.file -> name:string -> int
(** Physical dentry slot currently naming [name] in [parent]; [ENOENT] if
    it vanished under the rewriter. *)

val write_dentry : t -> Cpu.t -> Txn.txn -> slot_phys:int -> ino:int -> name:string -> unit
(** Journaled dentry (re-)write. *)

val retarget_index : t -> Cpu.t -> parent:Inode.file -> name:string -> ino:int -> slot:int -> unit
(** Re-point the DRAM index entry at a new inode (after the swap
    transaction committed). *)
