(** xfs-DAX model: locality/contiguity best-fit allocation that fully
    disregards alignment (its data area does not even start 2MB-aligned:
    footnote 1 — no hugepages even on a clean file system), with a global
    redo journal committed stop-the-world at fsync. *)

include Basefs

let preset =
  {
    label = "xfs-DAX";
    alloc_cfg =
      {
        Repro_alloc.Pool_alloc.per_cpu = false;
        policy = Best_fit;
        align_exact_2m = false;
        normalize_pow2 = false;
      };
    dir_policy = Repro_vfs.Dir_index.Dram_rbtree;
    journal = Jbd2_redo;
    zero_on_fallocate = false;
    misaligned_start = true;
    huge_fault_alloc = false;
    goal_alloc = true;
  }

let name = preset.label
let format dev cfg = Basefs.format preset dev cfg
