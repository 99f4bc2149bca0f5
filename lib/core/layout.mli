(** WineFS on-PM layout (Figure 5).

    The partition is carved into a superblock, per-CPU journals, per-CPU
    inode tables, a free-list serialization area (written on clean
    unmount), and per-CPU data stripes whose starts are 2MB-aligned so
    every stripe is a supply of aligned extents. *)

type t = {
  size : int;
  cpus : int;
  inodes_per_cpu : int;
  journal_entries : int;
  journal_copy_bytes : int;
  sb_off : int;
  journal_off : int array;  (** per CPU *)
  inode_table_off : int array;  (** per CPU *)
  serial_off : int;
  serial_len : int;
  meta_pool_off : int;
  meta_pool_len : int;
      (** dedicated metadata region (dentry blocks, extent-overflow
          blocks): §3.4 "controlled fragmentation" — small metadata never
          breaks up data-area aligned extents *)
  data_off : int;
  stripes : (int * int) array;  (** per-CPU data stripe (off, len) *)
}

val inode_bytes : int
(** 256. *)

val sb_replica_off : int
(** Device offset of the superblock replica (2048): the second half of the
    4K superblock page, so mount can repair either copy from the other. *)

val read_superblock :
  Repro_pmem.Device.t ->
  Repro_util.Cpu.t ->
  reconcile:
    ([ `Ok of Codec.Superblock.t | `Bad_magic | `Bad_csum ]
     * [ `Ok of Codec.Superblock.t | `Bad_magic | `Bad_csum ] ->
    Codec.Superblock.t) ->
  Codec.Superblock.t
(** The superblock reader mount and fsck share.  Reads the primary (at 0)
    and the replica, a poisoned line reading as [`Bad_csum], and hands
    the pair to [reconcile] (the caller's repair or finding logic, which
    picks the copy to trust).  Raises {!Repro_vfs.Types.Error} [EINVAL]
    when the device is too short to hold the replica, and when the
    chosen superblock's size differs from the device's. *)

val inline_extents : int
(** Extents stored inline in the inode (8); more spill to overflow blocks. *)

val compute : size:int -> cpus:int -> inodes_per_cpu:int -> t
(** Derive a layout.  [inodes_per_cpu] is clamped so that metadata never
    exceeds a quarter of the partition.  Raises [Invalid_argument] when
    the device is too small to hold any data. *)

val inode_off : t -> int -> int
(** Physical offset of an inode record by global inode number (1-based;
    see {!ino_of}). *)

val ino_of : t -> cpu:int -> idx:int -> int
val cpu_of_ino : t -> int -> int
val idx_of_ino : t -> int -> int
val max_ino : t -> int

val in_meta_pool : t -> off:int -> len:int -> bool
(** Does [off, off+len) lie entirely inside the metadata pool? *)

val in_data_area : t -> off:int -> len:int -> bool
(** Does [off, off+len) lie entirely inside the data area? *)
