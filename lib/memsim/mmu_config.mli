(** Cost and capacity parameters of the simulated memory subsystem.

    Defaults follow the paper's measurements (§2.1–§2.4): handling a base
    page fault costs 1–2µs; hugepages divide fault count by 512; TLB misses
    walk DRAM page tables whose entries then pollute the processor caches. *)

type t = {
  (* TLB geometry (Cascade Lake-ish). *)
  l1_tlb_4k_sets : int;
  l1_tlb_4k_ways : int;
  l1_tlb_2m_sets : int;
  l1_tlb_2m_ways : int;
  l2_tlb_sets : int;
  l2_tlb_ways : int;
  (* LLC geometry. *)
  llc_sets : int;
  llc_ways : int;
  (* Costs, nanoseconds. *)
  l2_tlb_hit_ns : float;
  walk_base_ns : float; (* page-walk latency beyond the PTE fetch itself *)
  llc_hit_ns : float;
  dram_access_ns : float; (* page-table entry fetch from DRAM on LLC miss *)
  fault_base_ns : float; (* kernel entry/exit + VMA lookup + PTE install, 4K *)
  fault_huge_ns : float; (* same for a 2MB mapping *)
}

val default : t
