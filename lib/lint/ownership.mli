(** Rule [ownership]: module-boundary discipline on {e resolved} paths —
    the archcheck layering rules, re-implemented on the AST (no matches
    inside comments/strings, aliases like
    [module U = Repro_journal.Undo_journal] are expanded) and extended
    repo-wide:

    - [Undo_journal]/[Redo_journal] are journal internals: only the txn
      and layout layers (plus basefs, which implements the PMFS/ext4
      journaling personalities, and the race scenarios that stress them)
      may reach them.
    - [Dir_index]/[Fd_table] are VFS structures: only the namespace,
      inode and fs facade layers (and the baselines) may use them.
    - [Fault] (media-fault injection) may only be driven through
      [lib/pmem] itself and the faultcheck harness — file systems must
      never inject their own faults.
    - [Crc32c] belongs to the codec/journal/inode metadata layers;
      checksums sprinkled elsewhere would bypass the media-fault repair
      accounting.

    Plus the facade-size invariant: [lib/core/fs.ml] stays a thin facade
    (at most 600 lines). *)

type rule = {
  target : string;  (** module component to police, e.g. ["Undo_journal"] *)
  allowed : string list;  (** path prefixes (dirs end in '/') or exact paths *)
  why : string;
}

val check : Source.file list -> Diag.t list
