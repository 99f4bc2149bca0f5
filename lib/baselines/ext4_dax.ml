(** ext4-DAX model: goal-based (locality-first) allocation with
    mballoc-style power-of-two normalisation, a global JBD2 redo journal
    committed stop-the-world at fsync, unwritten extents zeroed on first
    fault (§5.4), and PMD faults that allocate 2MB without caring about
    alignment — so hugepages appear on a clean file system but dissolve
    with age (§2.5, Figure 3). *)

include Basefs

let preset =
  {
    label = "ext4-DAX";
    alloc_cfg =
      {
        Repro_alloc.Pool_alloc.per_cpu = false;
        policy = First_fit (* overridden by per-file goals *);
        align_exact_2m = false;
        normalize_pow2 = true;
      };
    dir_policy = Repro_vfs.Dir_index.Dram_rbtree;
    journal = Jbd2_redo;
    zero_on_fallocate = false;
    misaligned_start = false;
    huge_fault_alloc = true;
    goal_alloc = true;
  }

let name = preset.label
let format dev cfg = Basefs.format preset dev cfg
