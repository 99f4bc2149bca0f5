(** Configurable extent allocator modelling the baseline file systems'
    policies (§2.5, §4):

    - ext4-DAX: goal-based locality allocation with mballoc-style
      power-of-two normalisation — it produces {e some} aligned extents by
      accident but never prefers them;
    - xfs-DAX / PMFS: pure contiguity/locality first- or best-fit that
      disregards alignment entirely (footnote 1: they get no hugepages
      even on a clean file system);
    - NOVA: per-CPU pools; attempts 2MB alignment only when a request is
      an exact multiple of 2MB (§6).

    Unlike {!Aligned_alloc} there is no aligned-extent reservation: what
    the paper shows is precisely that these policies let hugepage-capable
    regions dissolve under churn. *)

type policy = First_fit | Best_fit | Goal of (unit -> int)
(** [Goal f] asks [f] for the current locality goal offset (e.g. the end
    of the file's last extent). *)

type config = {
  per_cpu : bool;  (** partition free space per CPU (NOVA) or global *)
  policy : policy;
  align_exact_2m : bool;  (** NOVA: try 2MB alignment for exact multiples *)
  normalize_pow2 : bool;  (** ext4 mballoc-ish request normalisation *)
}

type extent = { off : int; len : int }

type t

val create : config -> cpus:int -> regions:(int * int) array -> t
(** With [per_cpu = false], regions are merged into one shared pool. *)

val alloc : ?goal:int -> t -> cpu:int -> len:int -> extent list option
(** May return multiple extents when free space is fragmented; [None] only
    when total free < len.  [goal] overrides the policy with a one-shot
    locality hint (ext4 allocates near the file's last extent). *)

val free : t -> off:int -> len:int -> unit
val free_bytes : t -> int
val aligned_region_count : t -> int
(** Free 2MB-aligned 2MB regions (Figure 3 census). *)

val free_extent_count : t -> int
val largest_free : t -> int
