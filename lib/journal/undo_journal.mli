(** PM-optimised, fine-grained undo journal (§3.4–§3.6).

    One instance per logical CPU in WineFS (a single shared instance models
    PMFS).  Each log entry is one 64B cache line; a transaction writes a
    START entry, undo records (the {e old} contents of every range it will
    modify in place), then a COMMIT entry.  All operations are synchronous,
    so journal space is reclaimed as soon as the transaction commits.
    Transaction IDs come from a counter shared across all per-CPU journals
    so multi-journal recovery can roll back in global order (§3.6).

    Undo records larger than the 28-byte inline payload spill the old data
    into the journal's copy area (used by WineFS's data journaling of
    aligned extents).

    On-PM layout: a 64B header (wraparound counter + tail slot), a ring of
    64B entry slots, then the copy area.  Every entry carries a CRC32C over
    its 64 bytes (checksum field zeroed); recovery scans forward from the
    persisted tail, accepting entries whose wraparound counter matches the
    expected generation {e and} whose checksum verifies — a torn or
    bit-rotted COMMIT record is therefore never honoured, and any trailing
    transaction without a verified COMMIT is rolled back by rewriting the
    journaled old bytes. *)

open Repro_util

(** Global transaction-ID counter shared by a set of journals.  The
    counter is the one piece of journal state shared across CPUs, so it
    takes an internal [Sched] mutex around each draw (a plain lock
    outside a scheduler run). *)
module Txn_counter : sig
  type t

  val create : unit -> t
  val peek : t -> int
end

type t

val bytes_needed : entries:int -> copy_bytes:int -> int
(** PM footprint of a journal with the given geometry. *)

val format : Repro_pmem.Device.t -> Cpu.t -> Txn_counter.t -> off:int -> entries:int -> copy_bytes:int -> t
(** Initialise an empty journal at device offset [off]. *)

val attach : Repro_pmem.Device.t -> Txn_counter.t -> off:int -> entries:int -> copy_bytes:int -> t
(** Bind to an existing (clean) journal without recovery. *)

type txn

val begin_txn : t -> Cpu.t -> reserve:int -> txn
(** Start a transaction that will log at most [reserve] entries (the paper
    reserves at most 10 per system call).  Writes and persists the START
    entry.  Only one transaction may be open per journal (callers hold the
    per-CPU journal lock); enforced. *)

val log_range : t -> Cpu.t -> txn -> addr:int -> len:int -> unit
(** Record the current contents of [addr, addr+len) as undo data — inline
    when it fits a cache line, otherwise via the copy area.  Must precede
    the in-place update. *)

val commit : t -> Cpu.t -> txn -> unit
(** Persist COMMIT, reclaim the space. *)

val abort : t -> Cpu.t -> txn -> unit
(** Roll back the in-place updates using the undo records and reclaim. *)

val copy_capacity : t -> int

(** Mount-time recovery.  Grouped apart from the transaction API so the
    narrow txn-facing surface (begin/log/commit/abort) is all that normal
    operation ever touches; only recovery orchestration (WineFS's
    {!Winefs.Txn} layer, tests) may scan and roll back. *)
module Recovery : sig
  type pending = { txn_id : int; records : (int * string) list (* addr, old bytes *) }

  val scan_pending : t -> Cpu.t -> pending option
  (** Recovery phase 1: the (at most one) unfinished transaction in this
      journal, without modifying anything. *)

  val rollback_pending : t -> Cpu.t -> pending -> unit
  (** Recovery phase 2: rewrite old bytes and reset the journal.  Call in
      descending global txn-id order across journals. *)

  val reset : t -> Cpu.t -> unit
  (** Clear the journal (end of recovery). *)

  val csum_failures : t -> int
  (** Entries whose wraparound generation matched but whose CRC32C did
      not, observed by scans on this handle — each is a detected (and
      refused) journal corruption. *)

  type entry = {
    e_slot : int;
    e_txn : int;
    e_kind : string;  (** START, COMMIT, UNDO-INLINE or UNDO-EXTENT *)
    e_addr : int;
    e_len : int;
  }

  val iter_live : t -> Cpu.t -> (entry -> unit) -> unit
  (** Record iteration without replay side effects (fsck): visit every
      verified entry in the live window scan_pending would honour — from
      the persisted tail to the first stale or torn slot — reading only
      entry slots, writing nothing, rolling back nothing. *)
end
