(** Conformance proofs and a uniform way to instantiate every file system
    in the study.

    The [module ... : Fs_intf.S] coercions below are the static checks
    that each baseline implements the full interface; experiments pick
    file systems from {!all} / {!metadata_group} / {!data_group}, matching
    the two comparison groups of §5.1.

    Every factory goes through {!handle}; the fixed consistency contract
    each system ships with (§5.1: ext4/xfs/PMFS/SplitFS are
    metadata-only, NOVA and Strata full data+metadata) is applied with
    the {!with_mode} combinator rather than per-factory closures. *)

module Fs_intf = Repro_vfs.Fs_intf
module Types = Repro_vfs.Types

module Ext4 : Fs_intf.S = Ext4_dax
module Xfs : Fs_intf.S = Xfs_dax
module Pmfs_fs : Fs_intf.S = Pmfs
module Nova_fs : Fs_intf.S = Nova
module Splitfs_fs : Fs_intf.S = Splitfs
module Strata_fs : Fs_intf.S = Strata

type factory = {
  fs_name : string;
  make : Repro_pmem.Device.t -> Types.config -> Fs_intf.handle;
}

let handle (type a) (module F : Fs_intf.S with type t = a) dev cfg =
  Fs_intf.Handle ((module F), F.format dev cfg)

let factory fs_name make = { fs_name; make }

(* Pin the consistency mode a system runs under, whatever the caller's
   config says. *)
let with_mode mode f = { f with make = (fun dev cfg -> f.make dev { cfg with Types.mode }) }

(* WineFS honours the caller's mode (the experiments run it both ways). *)
let winefs =
  factory "WineFS" (handle (module Winefs.Fs : Fs_intf.S with type t = Winefs.Fs.t))

let winefs_relaxed = { (with_mode Types.Relaxed winefs) with fs_name = "WineFS-Relaxed" }

let ext4_dax =
  with_mode Types.Relaxed
    (factory "ext4-DAX" (handle (module Ext4_dax : Fs_intf.S with type t = Ext4_dax.t)))

let xfs_dax =
  with_mode Types.Relaxed
    (factory "xfs-DAX" (handle (module Xfs_dax : Fs_intf.S with type t = Xfs_dax.t)))

let pmfs =
  with_mode Types.Relaxed
    (factory "PMFS" (handle (module Pmfs : Fs_intf.S with type t = Pmfs.t)))

let nova =
  with_mode Types.Strict
    (factory "NOVA" (handle (module Nova : Fs_intf.S with type t = Nova.t)))

let nova_relaxed =
  with_mode Types.Relaxed
    (factory "NOVA-Relaxed" (handle (module Nova : Fs_intf.S with type t = Nova.t)))

let splitfs =
  with_mode Types.Relaxed
    (factory "SplitFS" (handle (module Splitfs : Fs_intf.S with type t = Splitfs.t)))

let strata =
  with_mode Types.Strict
    (factory "Strata" (handle (module Strata : Fs_intf.S with type t = Strata.t)))

let all =
  [ winefs; winefs_relaxed; ext4_dax; xfs_dax; pmfs; nova; nova_relaxed; splitfs; strata ]

let by_name name =
  match List.find_opt (fun f -> String.lowercase_ascii f.fs_name = String.lowercase_ascii name) all with
  | Some f -> f
  | None -> invalid_arg ("unknown file system: " ^ name)
