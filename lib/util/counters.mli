(** Named event counters of one memory-mapping space.

    Each {!Repro_memsim.Vmem} space owns one set (page faults, TLB and LLC
    hits and misses, fault time); experiments and the benchmark read,
    snapshot and diff a space's own counts — the quantities Table 2 and
    §5.3 report.  Everything else, the file systems included, counts in
    the global {!Repro_stats.Stats} registry. *)

type t

val create : unit -> t
val get : t -> string -> int
val reset : t -> unit

val cell : t -> string -> int ref
(** Get-or-create the counter's cell, the one way to count: resolve the
    cell once and bump the ref directly.  Cells stay valid across
    {!reset} (which zeroes them in place). *)

val snapshot : t -> (string * int) list
(** All counters, sorted by name. *)

val diff : before:(string * int) list -> after:(string * int) list -> (string * int) list
(** Per-name difference of two snapshots (names missing on one side count
    as zero). *)
