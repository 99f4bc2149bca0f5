(** The file-system interface every implementation exposes.

    WineFS ({!Winefs.Fs}) and the six baseline models all implement
    {!S}; the aging framework, crash checker, application workloads and
    benchmark experiments are written once against it.  Operations take
    the calling {!Repro_util.Cpu.t}: the CPU id selects per-CPU structures
    (journals, pools) and its clock absorbs the simulated cost.

    Failure is the {!Types.Error} exception (POSIX-style errnos). *)

open Repro_util

type fd = int

module type S = sig
  type t

  val name : string

  (** {2 Lifecycle} *)

  val format : Repro_pmem.Device.t -> Types.config -> t
  (** mkfs + mount: write a fresh file system and return a live handle. *)

  val mount : Repro_pmem.Device.t -> Types.config -> t
  (** Mount an existing image.  After a crash this performs recovery
      (journal rollback/replay, index rebuild) and charges its simulated
      cost to an internal CPU; {!recovery_ns} reports it. *)

  val unmount : t -> Cpu.t -> unit
  (** Clean unmount: persist DRAM state (free lists etc.). *)

  val recovery_ns : t -> int
  (** Simulated nanoseconds the last {!mount} spent in recovery. *)

  val device : t -> Repro_pmem.Device.t
  val config : t -> Types.config

  (** {2 Namespace} *)

  val mkdir : t -> Cpu.t -> string -> unit
  val rmdir : t -> Cpu.t -> string -> unit
  val create : t -> Cpu.t -> string -> fd
  (** Create-exclusive and open read-write. *)

  val openf : t -> Cpu.t -> string -> Types.open_flags -> fd
  val close : t -> Cpu.t -> fd -> unit
  val unlink : t -> Cpu.t -> string -> unit
  val rename : t -> Cpu.t -> old_path:string -> new_path:string -> unit
  val readdir : t -> Cpu.t -> string -> string list
  val stat : t -> Cpu.t -> string -> Types.stat
  val exists : t -> Cpu.t -> string -> bool

  (** {2 Data} *)

  val pwrite : t -> Cpu.t -> fd -> off:int -> src:string -> int

  val pwrite_sub : t -> Cpu.t -> fd -> off:int -> src:string -> src_off:int -> len:int -> int
  (** [pwrite] of the substring [src.[src_off .. src_off+len)], without
      materialising it: the bytes are blitted straight from [src] to the
      device.  Bulk writers (aging churn, benchmark streams) reuse one
      large buffer across calls instead of allocating a copy per write —
      the copy itself was measurable, and the multi-megabyte temporaries
      land in the major heap and dominate GC time.  EINVAL outside
      [src]'s bounds. *)

  val pread : t -> Cpu.t -> fd -> off:int -> len:int -> string
  (** Holes read as zeros; reads past EOF are truncated. *)

  val append : t -> Cpu.t -> fd -> src:string -> int
  val fsync : t -> Cpu.t -> fd -> unit
  val fallocate : t -> Cpu.t -> fd -> off:int -> len:int -> unit
  (** Preallocate backing for the range and extend the size. *)

  val ftruncate : t -> Cpu.t -> fd -> int -> unit
  val file_size : t -> fd -> int

  (** {2 Memory mapping} *)

  val mmap_backing : t -> fd -> Repro_memsim.Vmem.backing
  (** Fault handler for a mapping of this file; encapsulates the file
      system's hugepage policy (§2.2, §3.6). *)

  val set_xattr_align : t -> Cpu.t -> string -> bool -> unit
  (** WineFS's alignment-preserving extended attribute (§3.6); other file
      systems accept and ignore it. *)

  (** {2 Introspection (no simulated cost)} *)

  val statfs : t -> Types.fs_stats
  val file_extents : t -> Cpu.t -> string -> (int * int * int) list
  (** [(file_off, phys, len)]. *)
end

(** Existential package so experiment code can hold a heterogeneous list of
    mounted file systems. *)
type handle = Handle : (module S with type t = 'a) * 'a -> handle

let handle_name (Handle ((module F), _)) = F.name

(** Shared software-path cost constants (ns).  §2.1: system calls pay for
    trapping into the kernel and VFS layers — the reason mmap access is up
    to 2x faster. *)
module Cost = struct
  let syscall_ns = 350 (* trap + return *)
  let vfs_ns = 150 (* VFS dispatch, fd lookup, permission checks *)

  let charge_syscall (cpu : Cpu.t) = Simclock.advance cpu.clock (syscall_ns + vfs_ns)
end
