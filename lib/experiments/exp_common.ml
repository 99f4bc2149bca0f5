(** Shared experiment plumbing: scaled sizes, file-system construction,
    aging shortcuts.

    Experiments default to laptop-scale parameters so the whole harness
    runs in minutes; [scale] grows devices and churn toward the paper's
    setup (§5.1: 500GB device, 100GB aged partitions, 165TB of churn).
    All results are simulated time from the cost models — the paper's
    *relative* effects are the reproduction target (see DESIGN.md). *)

open Repro_util
open Repro_vfs
module Device = Repro_pmem.Device
module Registry = Repro_baselines.Registry
module G = Repro_aging.Geriatrix

type setup = {
  scale : int;
  device_bytes : int;
  churn_bytes : int;
  cpus : int;
}

let make ?(scale = 1) () =
  let device_bytes = 384 * Units.mib * scale in
  {
    scale;
    device_bytes;
    (* ~48x capacity of churn by default; the paper uses ~330x. *)
    churn_bytes = device_bytes * 48;
    cpus = 4;
  }

let cfg setup = Types.config ~cpus:setup.cpus ~inodes_per_cpu:8192 ()

let fresh setup (factory : Registry.factory) =
  let dev = Device.create ~size:setup.device_bytes () in
  factory.make dev (cfg setup)

(* Age a fresh instance of [factory] to [target_util] with the Agrawal
   profile (§5.1). *)
let aged setup (factory : Registry.factory) ~target_util =
  let h = fresh setup factory in
  let report =
    G.age h ~profile:G.agrawal ~target_util ~churn_bytes:setup.churn_bytes ()
  in
  (h, report)

(* Fill without churn: the "un-aged" baseline of Figure 1(a). *)
let filled setup (factory : Registry.factory) ~target_util =
  let h = fresh setup factory in
  let report = G.age h ~profile:G.agrawal ~target_util ~churn_bytes:0 () in
  (h, report)

let mb_per_s ~bytes ~ns =
  if ns = 0 then 0. else float_of_int bytes /. float_of_int Units.mib /. (float_of_int ns /. 1e9)

(* The three file systems Figure 1/3 plot. *)
let fig1_filesystems = [ Registry.ext4_dax; Registry.nova; Registry.winefs ]

let handle_statfs (Fs_intf.Handle ((module F), fs)) = F.statfs fs
