(** WineFS — the paper's hugepage-aware PM file system (§3).

    Implements the common file-system interface ({!Repro_vfs.Fs_intf.S})
    plus WineFS-specific facilities: the reactive rewriter (§3.6).  See
    the implementation for the design commentary; DESIGN.md maps each
    mechanism to the paper section it reproduces. *)

type t

include Repro_vfs.Fs_intf.S with type t := t

val run_rewriter : t -> Repro_util.Cpu.t -> int
(** One pass of the background rewriter (§3.6 "Reactively rewriting a
    file"): every queued fragmented file that is not currently open is
    copied into freshly-allocated aligned extents under a new inode, and
    one journal transaction atomically deletes the old file and re-points
    the directory entry.  Returns the number of files rewritten. *)

val read_only : t -> bool
(** Did the mount-time scrub degrade this mount to read-only?  True when
    corruption was detected that could not be repaired from a redundant
    copy (superblock replica, journal rollback); every mutating operation
    then fails with [EROFS], and reads of refused objects fail with
    [EIO].  Scrub activity is counted in {!faults}. *)

val faults : t -> Repro_vfs.Degraded.tally
(** What the mount-time scrub and the read path detected, repaired and
    refused, also mirrored into the stats registry as [fault.*]. *)

val refused_inodes : t -> int
(** Inodes the scrub refused (corrupt header, poisoned extent metadata or
    directory blocks); accessing one fails with [EIO]. *)
