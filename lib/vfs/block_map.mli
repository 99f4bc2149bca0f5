(** Per-file extent map: logical file offsets to physical PM extents.

    The DRAM-side index every file system keeps per inode.  Mappings
    coalesce automatically when both the logical and physical ranges are
    adjacent, so {!extent_count} measures true file fragmentation — the
    quantity that decides whether a 2MB chunk of the file can be mapped by
    a hugepage. *)

type t

val create : unit -> t

val insert : t -> file_off:int -> phys:int -> len:int -> unit
(** Add a mapping.  Raises [Invalid_argument] if it overlaps an existing
    mapping (callers punch holes first with {!remove_range}). *)

val lookup : t -> file_off:int -> (int * int) option
(** [(phys, run)] where [run] is the contiguously-mapped byte count
    starting at [file_off]; [None] in a hole. *)

val next_mapped : t -> file_off:int -> int option
(** Smallest mapped offset >= the argument (hole skipping). *)

val remove_range : t -> file_off:int -> len:int -> (int * int) list
(** Unmap a logical range, splitting boundary extents; returns the freed
    physical runs [(phys, len)]. *)

val covered : t -> file_off:int -> len:int -> bool
(** Entire range mapped (no holes)? *)

val huge_candidate : t -> chunk_off:int -> int option
(** For a 2MB-aligned [chunk_off]: the physical base if the whole 2MB chunk
    is backed by one contiguous extent whose physical base is 2MB-aligned —
    the §2.2 condition for mapping the chunk with a hugepage. *)

val extents : t -> (int * int * int) list
(** [(file_off, phys, len)] in logical order. *)

val extent_count : t -> int
val mapped_bytes : t -> int
val clear : t -> unit
val check_invariants : t -> (unit, string) result
