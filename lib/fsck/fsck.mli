(** Offline multi-phase checker/repairer for unmounted WineFS images, in
    the e2fsck tradition.

    Operates on a raw {!Repro_pmem.Device} through the same
    {!Winefs.Layout}/{!Winefs.Codec} views the file system uses, in six
    phases:

    + superblock + replica reconcile;
    + journal scan — verify undo records, report (and in repair mode
      perform) what recovery would do, discard corrupt journals;
    + inode table scan — CRC-check every header, rebuild the in-DRAM
      picture of every live inode, clear corrupt records;
    + extent cross-check — claim every inode's extents and overflow
      blocks against per-region occupancy trees, detecting
      double-allocated extents (clone-and-reassign, or clear when space
      is gone), leaked blocks (returned to the free list by
      construction) and a stale serialized free list;
    + connectivity — walk the directory tree from the root, verify
      dentry↔inode agreement and link counts, break directory cycles and
      reattach orphan inodes into [/lost+found] (created on demand);
    + rewrite repaired metadata with fresh CRCs, serialize the
      recomputed free list and clear the dirty stamp.

    Check mode ([repair = false], the default) writes nothing: every
    finding carries the action repair mode {e would} take.  (On an image
    with an unfinished journal transaction the two modes can diverge
    beyond phase 2 — repair mode rolls the transaction back before
    scanning, which may subsume later-phase findings.)  A clean image
    produces no findings and — in repair mode — no writes at all (fsck
    is a byte-identical no-op on clean images). *)

type severity =
  | Note  (** observation, nothing to change (e.g. the dirty stamp) *)
  | Repair  (** a repair was performed (or would be, in check mode) *)
  | Fatal  (** unrepairable; the image stays dirty *)

type finding = {
  phase : int;
  rule : string;  (** stable kebab-case id, e.g. ["extent-double-alloc"] *)
  obj : string;  (** the object concerned, e.g. ["inode 7"] *)
  detail : string;
  action : string;  (** what repair mode does about it *)
  severity : severity;
}

type report = {
  repair : bool;  (** was this a repair run? *)
  clean : bool;  (** no findings at all *)
  fatal : bool;
  findings : finding list;  (** phase order, insertion order within *)
  repairs : int;
  notes : int;
  orphans_reattached : int;
  phase_ns : (string * int) list;  (** simulated time per phase *)
}

val run : ?repair:bool -> Repro_pmem.Device.t -> report
(** Check (and with [~repair:true] repair) the image.  Raises
    {!Repro_vfs.Types.Error} [EINVAL] when the device is not a WineFS
    image or not the size its superblock records, and [EIO] when both
    superblock copies are corrupt. *)

val to_string : report -> string
(** Normalized, byte-stable rendering (excludes {!report.phase_ns}). *)

val to_json : report -> Repro_stats.Json.t
