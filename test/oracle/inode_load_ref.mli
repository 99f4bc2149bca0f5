(** Reference model of the recovery mount's inode load: every valid
    inode built eagerly at scan time, as {!Winefs.Inode.scan_tables} did
    before regular files were built on first lookup.  Kept as a
    differential-test oracle.

    The tables are scanned one header at a time, in the mount's order
    (CPU by CPU, ascending index).  Each valid inode's overflow chain,
    inline slots and overflow slots are read and its {!Winefs.Inode.file}
    built: live records inserted in slot order, free inline slots in the
    bitmask, free overflow slots stacked highest on top.  Each file's
    lock is created in scan order, so lock ids are consecutive in that
    order.  Then every directory's dentries set its children's [parent]
    and [dname] and fill its index.  The image must have no media
    errors or corrupt headers. *)

val load :
  Repro_pmem.Device.t -> Winefs.Layout.t -> Repro_util.Cpu.t -> Winefs.Inode.file list
(** The loaded inodes, in scan order. *)
