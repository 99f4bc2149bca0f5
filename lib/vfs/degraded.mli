(** Read-only-degradation guards shared by every file system in the study.

    A mount that detects unrepairable corruption degrades to read-only:
    mutating operations must fail with [EROFS] (with one canonical message
    format, so tests and tools can match it), and every detection /
    repair / refusal observed by a scrub or a read path is added to the
    mount's own {!tally} and mirrored into the global stats registry as
    [fault.*].  WineFS uses both today; baselines that later grow fault
    handling reuse this one implementation. *)

val require_writable : read_only:bool -> unit
(** Raise [Types.Error (EROFS, _)] when [read_only] — the single EROFS
    message format for degraded mounts. *)

type tally = { mutable detected : int; mutable repaired : int; mutable refused : int }
(** One mount's corruptions detected, and of those repaired and refused. *)

val count_fault : tally -> detected:int -> repaired:int -> refused:int -> unit
(** Add to the tally and mirror each non-zero count into {!Repro_stats.Stats}. *)
