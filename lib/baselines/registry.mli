(** Uniform instantiation of every file system in the study.

    A {!factory} packs a display name with a constructor returning an
    existential {!Repro_vfs.Fs_intf.handle}; experiments pick from
    {!all}.  Each factory pins the consistency
    contract its system ships with (ext4/xfs/PMFS/SplitFS metadata-only,
    NOVA and Strata full data+metadata). *)

type factory = {
  fs_name : string;
  make : Repro_pmem.Device.t -> Repro_vfs.Types.config -> Repro_vfs.Fs_intf.handle;
}

val winefs : factory
val winefs_relaxed : factory
val ext4_dax : factory
val xfs_dax : factory
val pmfs : factory
val nova : factory
val nova_relaxed : factory
val splitfs : factory
val strata : factory

val all : factory list

val by_name : string -> factory
(** Case-insensitive lookup in {!all}; raises [Invalid_argument] for an
    unknown name. *)
