(** The DRAM namespace shared by the baseline engines (Basefs behind
    ext4-DAX/xfs-DAX/PMFS/SplitFS, NOVA and Strata).

    The baselines keep their inode table, directory indexes and fd table
    in DRAM; what the paper credits or blames them for is how they make a
    namespace change durable — a journal record (ext4/xfs/PMFS), per-inode
    log appends (NOVA), or a per-process log append (Strata) — plus their
    allocation and fault behaviour.  This module owns everything else:
    the inode table, the path walk, the fd table, the bodies of the
    namespace operations, the read/write prologues, the block-map read
    loop, [statfs] and the block-mapped data path (hole walk, remap, store
    loop, copy-on-write preserve, shrink, dirty flush, fault skeleton): an
    engine keeps only its allocation, zeroing and durability steps.

    An engine plugs in through {!ENGINE}.  Every durability hook receives
    the DRAM dentry update as a thunk, so the engine states its own order
    in one line: [update (); journal ...] for ext4/xfs/PMFS,
    [log ...; update ()] for NOVA and Strata.  Locking, lookups and
    [Dir_index] charges around the hooks are identical across engines. *)

open Repro_util

(** One inode, with a per-engine payload [p] (Basefs: journal address,
    allocation goal, unwritten ranges; NOVA: the inode log; Strata:
    nothing). *)
type 'p file = {
  ino : int;
  mutable kind : Repro_vfs.Types.file_kind;
  mutable size : int;
  mutable nlink : int;
  bmap : Repro_vfs.Block_map.t;
  mutable dir : Repro_vfs.Dir_index.t option;
  lock : Repro_sched.Sched.mutex;
  p : 'p;
}

type 'p t = {
  files : (int, 'p file) Hashtbl.t;
  fds : Repro_vfs.Fd_table.t;
  alloc : Repro_alloc.Pool_alloc.t;  (** the data area's allocator *)
  capacity : int;  (** data-area bytes, as [statfs] reports them *)
  dir_policy : Repro_vfs.Dir_index.policy;
  payload : int -> 'p;  (** payload of a fresh inode with this number *)
  mutable next_ino : int;
}

val init :
  alloc:Repro_alloc.Pool_alloc.t ->
  capacity:int ->
  dir_policy:Repro_vfs.Dir_index.policy ->
  root:'p ->
  payload:(int -> 'p) ->
  'p t
(** An empty namespace: the root directory (payload [root]) only. *)

val find_file : 'p t -> int -> 'p file
(** Raises [Types.Error (EBADF, _)] for a stale inode number. *)

val file_of_fd : 'p t -> int -> 'p file
val resolve : 'p t -> Cpu.t -> string -> int
(** Path walk to an inode number; raises ENOENT/ENOTDIR. *)

val free_blocks : 'p t -> 'p file -> unit
(** Return every mapped block of the file to the allocator. *)

(** {2 Data-path prologues}

    Each charges the syscall, resolves the fd and validates the request,
    in the same order for every engine; the [check_*] forms skip the
    syscall charge for SplitFS's user-space path. *)

val check_write : 'p t -> int -> off:int -> src:string -> src_off:int -> len:int -> 'p file
(** EBADF unless writable, EISDIR, EINVAL outside [src]'s bounds, then
    EINVAL for a negative [off] unless [len = 0]. *)

val write_prologue :
  'p t -> Cpu.t -> int -> off:int -> src:string -> src_off:int -> len:int -> 'p file

val check_read : 'p t -> int -> off:int -> len:int -> 'p file
(** EBADF unless readable, EINVAL for a negative [off] or [len]. *)

val fallocate_prologue : 'p t -> Cpu.t -> int -> off:int -> len:int -> 'p file
(** EINVAL for a negative [off] or [len <= 0]. *)

val ftruncate_prologue : 'p t -> Cpu.t -> int -> int -> 'p file
(** EINVAL for a negative size. *)

(** {2 Block-mapped data}

    Plain functions of a {!file}.  A helper that stores to PM takes the
    caller's [~site] and runs under [Device.with_site]; none fences
    unless it says so. *)

val alloc : ?goal:int -> 'p t -> cpu:int -> len:int -> Repro_alloc.Pool_alloc.extent list
(** Data-area extents for [len] bytes; ENOSPC when there are none. *)

val iter_holes : 'p file -> off:int -> len:int -> (off:int -> len:int -> unit) -> unit
(** Call the function on each unmapped run of [[off, off+len)] rounded out
    to blocks, in file order. *)

val map_extents : 'p file -> file_off:int -> Repro_alloc.Pool_alloc.extent list -> unit
(** Map the extents back to back from [file_off]. *)

val remap :
  'p t -> 'p file -> file_off:int -> len:int -> Repro_alloc.Pool_alloc.extent list ->
  commit:(int -> unit) -> unit
(** Unmap the range, map the extents over it, pass the number of old runs
    to [commit], then free them (so [commit] cannot allocate one). *)

val zero_extent :
  Repro_pmem.Device.t -> Cpu.t -> site:Repro_pmem.Site.t -> off:int -> len:int -> unit
(** [memset_nt] zeros over PM [[off, off+len)], then a fence. *)

val write_mapped :
  Repro_pmem.Device.t -> Cpu.t -> site:Repro_pmem.Site.t -> 'p file -> off:int -> src:string ->
  src_off:int -> len:int -> unit
(** Non-temporal stores of [src] over the runs backing [[off, off+len)],
    all of which must be mapped. *)

val preserve :
  Repro_pmem.Device.t -> Cpu.t -> site:Repro_pmem.Site.t -> 'p file -> off:int -> len:int ->
  dst:int -> int
(** Copy-on-write preserve: copy the file's bytes of [[off, off+len)] to
    PM at [dst], zeroing from the first hole on; returns the bytes copied. *)

val shrink :
  Repro_pmem.Device.t -> Cpu.t -> site:Repro_pmem.Site.t -> 'p t -> 'p file -> int -> int option
(** [ftruncate] below [f.size]: zero the kept block's mapped tail past the
    new size (fenced), then free every block past it: [Some] runs freed,
    [None] if no whole block lay past it.  The caller sets [f.size]. *)

val flush_dirty : Repro_pmem.Device.t -> Cpu.t -> site:Repro_pmem.Site.t -> int -> unit
(** fsync of that many in-place bytes: a flush charge per line, a fence. *)

val fault :
  Cpu.t -> 'p file -> file_off:int -> huge_ok:bool -> fill_len:int ->
  fill:(Cpu.t -> 'p file -> off:int -> len:int -> unit) ->
  touch:(Cpu.t -> 'p file -> fresh:bool -> file_off:int -> phys:int -> len:int -> unit) ->
  Repro_memsim.Vmem.fault_result
(** The fault skeleton: a mapped aligned chunk (if [huge_ok]) is [Huge],
    else a mapped page is [Base], each [touch]ed [~fresh:false].  Else
    [fill] backs [fill_len] bytes under the inode lock (one page if that
    raises ENOSPC) and the retried answer (the chunk only if [fill_len]
    is a hugepage) is [touch]ed [~fresh:true]; no page mapped after that
    is [Sigbus].  Build [fill] and [touch] once per mapping: faults are
    hot. *)

(** {2 Engines} *)

type 'p ns = 'p t

module type ENGINE = sig
  type t
  type payload

  val ns : t -> payload ns
  val device : t -> Repro_pmem.Device.t

  val persist_link : t -> Cpu.t -> parent:payload file -> payload file -> (unit -> unit) -> unit
  (** mkdir/create of a fresh inode under [parent], the parent lock held;
      the thunk adds the dentry (and the parent's link for a directory). *)

  val persist_unlink : t -> Cpu.t -> parent:payload file -> payload file -> (unit -> unit) -> unit
  (** The thunk removes the dentry. *)

  val persist_rmdir : t -> Cpu.t -> parent:payload file -> payload file -> (unit -> unit) -> unit
  (** The thunk removes the dentry and the parent's link. *)

  val persist_rename : t -> Cpu.t -> src:payload file -> dst:payload file -> (unit -> unit) -> unit
  (** Both parent locks held; the thunk moves the dentry. *)

  val persist_truncate : t -> Cpu.t -> payload file -> (unit -> unit) -> unit
  (** O_TRUNC of a non-empty regular file; the thunk frees its blocks and
      zeroes its size.  The engine takes (or does not take) the inode
      lock. *)

  val release : t -> payload file -> unit
  (** The last link went (unlink, rename victim), inode lock held: free
      what the inode owns.  The inode leaves the table afterwards. *)

  val size : t -> payload file -> int
  (** The size readers see (Strata overlays its pending log entries). *)

  val log_bytes : payload file -> int
  (** Per-inode log bytes [stat] counts as blocks (NOVA). *)

  val read_overlay : t -> Cpu.t -> payload file -> off:int -> len:int -> Bytes.t -> unit
  (** Patch [pread]'s block-map bytes (Strata's pending log entries). *)

  val pwrite_sub : t -> Cpu.t -> int -> off:int -> src:string -> src_off:int -> len:int -> int
end

module Make (E : ENGINE) : sig
  val mount : Repro_pmem.Device.t -> Repro_vfs.Types.config -> E.t
  val recovery_ns : E.t -> int
  val mkdir : E.t -> Cpu.t -> string -> unit
  val rmdir : E.t -> Cpu.t -> string -> unit
  val create : E.t -> Cpu.t -> string -> int
  val openf : E.t -> Cpu.t -> string -> Repro_vfs.Types.open_flags -> int
  val close : E.t -> Cpu.t -> int -> unit
  val unlink : E.t -> Cpu.t -> string -> unit
  val rename : E.t -> Cpu.t -> old_path:string -> new_path:string -> unit
  val readdir : E.t -> Cpu.t -> string -> string list
  val stat : E.t -> Cpu.t -> string -> Repro_vfs.Types.stat
  val exists : E.t -> Cpu.t -> string -> bool
  val pwrite : E.t -> Cpu.t -> int -> off:int -> src:string -> int
  val append : E.t -> Cpu.t -> int -> src:string -> int
  val pread : E.t -> Cpu.t -> int -> off:int -> len:int -> string
  val file_size : E.t -> int -> int
  val set_xattr_align : E.t -> Cpu.t -> string -> bool -> unit
  val statfs : E.t -> Repro_vfs.Types.fs_stats
  val file_extents : E.t -> Cpu.t -> string -> (int * int * int) list
end
