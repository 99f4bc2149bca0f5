(** WineFS's alignment-aware allocator (§3.4, §3.6).

    The data area is partitioned per logical CPU.  Each CPU owns

    - a pool of free {e aligned extents}: 2MB-aligned, 2MB-sized regions
      kept in a FIFO list (allocate from the head, free to the tail);
    - a pool of free {e unaligned holes} kept in a red-black tree keyed by
      offset, allocated first-fit.

    Requests are split into hugepage-sized chunks (served from the aligned
    pool) and a sub-2MB remainder (served from holes).  When the local CPU
    runs dry, large requests steal from the CPU with the most free aligned
    extents and small ones from the CPU with the most free hole bytes;
    holes can also be replenished by breaking a local aligned extent.
    Freed extents return to their origin CPU's pools and re-coalesce:
    whenever a merged hole fully covers a 2MB-aligned region, that region
    is promoted back to the aligned pool. *)

type extent = { off : int; len : int }

val zero_extents : Repro_pmem.Device.t -> Repro_util.Cpu.t -> extent list -> unit
(** Zero freshly allocated extents with non-temporal stores and one fence,
    under the ["alloc.zero"] durability-lint site.  Newly exposed data
    blocks must read back as zeroes after any crash, so the zeroes are made
    durable before the extents are linked into an inode. *)

type t

val create : cpus:int -> regions:(int * int) array -> t
(** [regions.(c)] is CPU [c]'s data stripe [(off, len)]. *)

val alloc :
  ?contig_after:int -> t -> cpu:int -> len:int -> prefer_aligned:bool -> extent list option
(** Allocate [len] bytes for CPU [cpu] (multi-extent results are ordered
    for file-offset assembly).  [prefer_aligned] makes even a sub-2MB
    request start on a fresh aligned extent (used for files carrying the
    alignment xattr, §3.6); its 2MB tail remainder returns to the hole
    pool.  [contig_after] is a contiguity hint: when the bytes directly at
    that offset are free, the allocation extends there so sequential small
    writes fill one aligned extent instead of fragmenting many.
    [None] = ENOSPC. *)

val alloc_hugepage : t -> cpu:int -> int option
(** One aligned 2MB extent. *)

val free : t -> off:int -> len:int -> unit
(** Return an extent; the origin CPU is derived from the offset.
    Raises [Invalid_argument] when the range is already free — including
    the case invisible to the hole tree, where it overlaps a promoted 2MB
    extent parked in the aligned pool (double free). *)

val free_bytes : t -> int
val free_aligned_extents : t -> int
(** Total immediately-usable aligned 2MB extents across CPUs. *)

val aligned_region_count : t -> int
(** Figure 3 metric: aligned pool plus aligned 2MB regions inside holes
    (the latter is normally zero thanks to promotion). *)

val region_of : (int * int) array -> int -> int option
(** [region_of regions off]: index of the [(off, len)] region (per-CPU
    stripe) holding offset [off], or [None] outside every region.  The
    one stripe-membership test: the allocator, the extent map's merge
    guard and fsck all decide through it. *)

val cpu_of_offset : t -> int -> int
(** {!region_of} over the allocator's stripes; raises [Invalid_argument]
    outside the data area. *)

val hole_stats : t -> cpu:int -> int * int
(** [(hole_bytes, hole_extents)] of one CPU. *)

val snapshot : t -> (int * int) list
(** All free extents [(off, len)], ascending — for unmount serialization
    and invariant checks. *)

val restore : cpus:int -> regions:(int * int) array -> free:(int * int) list -> t
(** Rebuild allocator state from a serialized snapshot or a mount-time
    scan of used extents. *)

type used = { ext : int array; n : int }
(** [n] extents packed as [(off, len)] pairs: [ext.(2 * i)] and
    [ext.(2 * i + 1)]. *)

val free_lists_of_used :
  regions:(int * int) array -> used:used -> ((int * int) list, string) result
(** On-PM occupancy export: the free extents of each region once every
    [used] extent is claimed, ascending, computed by one sweep over the
    used extents in ascending offset order (equal offsets in their given
    order) with a cursor per region, so free space never coalesces
    across stripe boundaries.  A strictly increasing order, the mount's
    on an image written in table order, is walked as given; any other is
    stable-sorted.  [Error] names the first overlapping (double-used),
    out-of-region, region-crossing or empty used extent in that order. *)

val first_not_free : free:(int * int) list -> (int * int) list -> (int * int) option
(** The first extent of an ascending list that is empty, overlaps its
    predecessor or does not lie inside one extent of the ascending [free]
    list, found in one merge pass; mount checks the serialized free list. *)

val check_invariants : t -> (unit, string) result
