(** PMFS model: the code base WineFS builds on, minus everything WineFS
    adds — a single fine-grained undo journal (§6: per-CPU in WineFS), a
    global first-fit block allocator that ignores alignment (footnote 1:
    no hugepages even clean), and sequential PM scans of directory entries
    (§3.5: the slowdowns on metadata-heavy workloads like varmail). *)

include Basefs

let preset =
  {
    label = "PMFS";
    alloc_cfg =
      {
        Repro_alloc.Pool_alloc.per_cpu = false;
        policy = First_fit;
        align_exact_2m = false;
        normalize_pow2 = false;
      };
    dir_policy = Repro_vfs.Dir_index.Pm_linear_scan 130.;
    journal = Pmfs_undo;
    zero_on_fallocate = true;
    misaligned_start = true;
    huge_fault_alloc = false;
    goal_alloc = false;
  }

let name = preset.label
let format dev cfg = Basefs.format preset dev cfg
