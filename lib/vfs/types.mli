(** Shared file-system types: errors, stat, open flags, mount config.

    Every file system in the reproduction (WineFS and the six baselines)
    speaks these types through {!Fs_intf.S}. *)

type errno =
  | ENOENT
  | EEXIST
  | ENOSPC
  | ENOTDIR
  | EISDIR
  | ENOTEMPTY
  | EBADF
  | EINVAL
  | ENAMETOOLONG
  | EIO  (** uncorrectable media error reached by an operation *)
  | EROFS  (** mutation refused on a read-only (degraded) mount *)

exception Error of errno * string
(** All file-system failures. *)

val err : errno -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [err e fmt ...] raises {!Error} with a formatted message. *)

val errno_to_string : errno -> string

type file_kind = Regular | Directory

val is_dir : file_kind -> bool
val is_regular : file_kind -> bool
(** Monomorphic kind tests: the namespace and open paths test the kind
    on every lookup, where polymorphic [=] would cost an indirect call
    per comparison. *)

type stat = {
  st_ino : int;
  st_kind : file_kind;
  st_size : int;
  st_blocks : int;  (** bytes of PM allocated to the file *)
  st_nlink : int;
}

type open_flags = {
  rd : bool;
  wr : bool;
  creat : bool;
  excl : bool;
  trunc : bool;
  append : bool;
}

val o_rdonly : open_flags
val o_rdwr : open_flags
val o_creat_rdwr : open_flags

(** Consistency mode (§3.3): [Strict] makes data and metadata operations
    atomic and synchronous (NOVA/Strata class); [Relaxed] guarantees only
    metadata atomicity (ext4-DAX/xfs-DAX/PMFS class). *)
type mode = Strict | Relaxed

val is_strict : mode -> bool

type config = {
  cpus : int;  (** logical CPUs: number of per-CPU pools/journals *)
  mode : mode;
  numa_nodes : int;
  inodes_per_cpu : int;
}

val default_config : config
val config : ?cpus:int -> ?mode:mode -> ?numa_nodes:int -> ?inodes_per_cpu:int -> unit -> config

(** Free-space summary used by the aging experiments (Figure 3). *)
type fs_stats = {
  capacity : int;  (** data-area bytes *)
  used : int;
  free : int;
  free_extents : int;
  largest_free : int;
  aligned_free_2m : int;  (** free 2MB-aligned 2MB regions (hugepage supply) *)
}

val utilization : fs_stats -> float
