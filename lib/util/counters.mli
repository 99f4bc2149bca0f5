(** Named event counters.

    Each simulated component (device, TLB, journal, FS) owns a counter set;
    experiments snapshot and diff them to report page faults, TLB misses,
    bytes written, and so on — the quantities Table 2 and §5.3 report. *)

type t

val create : unit -> t
val incr : t -> string -> unit
val add : t -> string -> int -> unit
val get : t -> string -> int
val reset : t -> unit

val cell : t -> string -> int ref
(** Get-or-create the counter's cell.  Hot paths resolve the cell once
    and bump the ref directly, skipping the per-call name lookup; cells
    stay valid across {!reset} (which zeroes them in place). *)

val snapshot : t -> (string * int) list
(** All counters, sorted by name. *)

val diff : before:(string * int) list -> after:(string * int) list -> (string * int) list
(** Per-name difference of two snapshots (names missing on one side count
    as zero). *)
