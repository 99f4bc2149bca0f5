(** Virtual-memory and memory-mapped-file simulation.

    This is the mechanism behind the paper's headline effect: a file can be
    mapped with 2MB hugepages only when the backing extents are 2MB-sized,
    2MB-aligned and contiguous (§2.2); otherwise every 2MB of the mapping
    costs 512 base-page faults, and afterwards 512× more TLB entries whose
    page-table lines evict application data from the processor caches
    (§2.4, Figures 2 and 4).

    The file system owns the hugepage policy through the {!backing}
    callback it supplies at {!mmap} time: on each fault the callback
    decides — given its own extent layout and allocator — whether the
    faulting 2MB chunk can be served by an aligned hugepage ({!Huge}) or
    falls back to a base page ({!Base}).  This mirrors how WineFS adds
    "hugepage handling on page faults" in its fault path (§3.6).

    Counters (in the space's counter set): "mm.page_faults",
    "mm.huge_faults", "mm.tlb_hits", "mm.tlb_misses", "mm.llc_hits",
    "mm.llc_misses", "mm.fault_ns".  Each appears in a snapshot from its
    first bump on (a fresh space snapshots empty) and is bumped through a
    cell resolved once, so the per-line and per-translation path does no
    name lookup; {!Counters.reset} zeroes the cells in place.  The TLBs
    and the LLC are {!Lru_sets} directories: a miss evicts the last slot
    of its set, even when an invalidated hole sits earlier. *)

open Repro_util

type fault_result =
  | Huge of int
      (** Physical base of a 2MB-aligned extent backing the whole faulting
          2MB chunk.  Must be hugepage-aligned; checked. *)
  | Base of int  (** Physical base of the 4KB page backing the fault. *)
  | Sigbus  (** No backing and the file system refuses to allocate. *)

type backing = Cpu.t -> file_off:int -> huge_ok:bool -> fault_result
(** [backing cpu ~file_off ~huge_ok] resolves a fault at page-aligned
    [file_off].  When [huge_ok], [file_off] is also 2MB-aligned and the
    callback may answer [Huge]. *)

type t
type region

val create : ?config:Mmu_config.t -> Repro_pmem.Device.t -> t
val counters : t -> Counters.t

val mmap :
  t ->
  len:int ->
  backing:backing ->
  ?huge_ok:bool ->
  ?zero_on_fault:bool ->
  unit ->
  region
(** Map [len] bytes of a file.  [huge_ok] (default true) permits hugepage
    mappings; [zero_on_fault] charges a page-sized zeroing write on each
    fault (ext4-DAX-style, §5.4 PmemKV discussion). *)

val munmap : t -> region -> unit
(** Drop all mappings of the region and flush the TLBs. *)

val read : t -> Cpu.t -> region -> off:int -> len:int -> unit
(** Load [len] bytes; charges TLB/fault/cache/PM time.  Use {!read_into}
    to also obtain the data. *)

val read_into : t -> Cpu.t -> region -> off:int -> dst:bytes -> dst_off:int -> len:int -> unit
val write : t -> Cpu.t -> region -> off:int -> src:string -> unit

val fill : t -> Cpu.t -> region -> off:int -> len:int -> char -> unit
(** memset through the mapping. *)

val read_u64 : t -> Cpu.t -> region -> off:int -> int64
val write_u64 : t -> Cpu.t -> region -> off:int -> int64 -> unit

val persist : t -> Cpu.t -> region -> off:int -> len:int -> unit
(** clwb + fence over the mapped range (what PM-native apps do to commit). *)

val prefault : t -> Cpu.t -> region -> unit
(** Touch every page so no faults remain in the critical path (§2.4). *)

val huge_mapped_bytes : t -> region -> int
(** Bytes of the region currently mapped by hugepages. *)

val base_mapped_pages : t -> region -> int
