(** Free-space extent tree.

    Tracks disjoint free extents keyed by physical offset, with automatic
    coalescing of adjacent extents on free — the structure WineFS keeps per
    logical CPU for its unaligned "hole" pool, and that the baseline
    allocators (ext4/xfs/NOVA models) use for all free space.

    A secondary (length, offset) index supports best-fit allocation in
    O(log n); first-fit walks offsets in order like the kernel's rbtree
    walk.  All sizes are in bytes (callers allocate in block multiples). *)

type t

val create : unit -> t

val insert_free : t -> off:int -> len:int -> unit
(** Return an extent to the pool, merging with adjacent free extents.
    Raises [Invalid_argument] if the range overlaps an existing free
    extent (double free) or has non-positive length. *)

val alloc_first_fit : t -> len:int -> int option
(** Lowest-offset free extent at least [len] long; carves [len] bytes from
    its front.  WineFS uses first-fit for hole allocation (§3.6). *)

val alloc_best_fit : t -> len:int -> int option
(** Smallest sufficient extent (ties broken by offset). *)

val alloc_near : t -> goal:int -> len:int -> int option
(** First fit at or after [goal], wrapping to the start — models goal-based
    locality allocation in ext4/xfs. *)

val alloc_aligned : t -> len:int -> align:int -> int option
(** Carve an [align]-aligned run of [len] bytes from the first extent that
    contains one. *)

val alloc_aligned_near : t -> goal:int -> window:int -> len:int -> align:int -> int option
(** Like {!alloc_aligned} but only considers extents intersecting
    [goal, goal+window) — models allocators whose alignment is subordinate
    to locality (ext4 mballoc's buddy alignment within the goal's block
    groups). *)

val alloc_exact : t -> off:int -> len:int -> bool
(** Carve a specific range; false when not entirely free. *)

val extent_at : t -> off:int -> (int * int) option
(** The free extent containing [off], as [(extent_off, extent_len)]. *)

val total_free : t -> int
val extent_count : t -> int

val largest : t -> int
(** Length of the largest free extent (0 when empty). *)

val iter : t -> (off:int -> len:int -> unit) -> unit
(** Ascending offset order. *)

val iter_range : t -> off:int -> len:int -> (off:int -> len:int -> unit) -> unit
(** The free extents that overlap [off, off+len), whole, in ascending
    offset order; [f] must not modify the tree. *)

val to_list : t -> (int * int) list

val aligned_region_count : t -> align:int -> int
(** Number of disjoint [align]-aligned, [align]-sized regions that lie
    entirely in free space — the paper's Figure 3 metric (available
    hugepages). *)

val check_invariants : t -> (unit, string) result
