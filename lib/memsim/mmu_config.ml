type t = {
  l1_tlb_4k_sets : int;
  l1_tlb_4k_ways : int;
  l1_tlb_2m_sets : int;
  l1_tlb_2m_ways : int;
  l2_tlb_sets : int;
  l2_tlb_ways : int;
  llc_sets : int;
  llc_ways : int;
  l2_tlb_hit_ns : float;
  walk_base_ns : float;
  llc_hit_ns : float;
  dram_access_ns : float;
  fault_base_ns : float;
  fault_huge_ns : float;
}

let default =
  {
    (* 64-entry L1 dTLB for 4K pages, 32-entry for 2M, 1536-entry L2 STLB. *)
    l1_tlb_4k_sets = 16;
    l1_tlb_4k_ways = 4;
    l1_tlb_2m_sets = 8;
    l1_tlb_2m_ways = 4;
    l2_tlb_sets = 128;
    l2_tlb_ways = 12;
    (* A scaled LLC: 8192 sets x 16 ways x 64B = 8 MiB.  Experiments scale
       working sets with the cache, so hit/miss behaviour matches the
       paper's 32MB LLC against its full-size working sets. *)
    llc_sets = 8192;
    llc_ways = 16;
    l2_tlb_hit_ns = 7.;
    walk_base_ns = 25.;
    llc_hit_ns = 22.;
    dram_access_ns = 85.;
    fault_base_ns = 1500.; (* paper §1: page-fault handling costs 1-2us *)
    fault_huge_ns = 2200.;
  }
