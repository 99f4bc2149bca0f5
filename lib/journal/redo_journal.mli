(** Global redo (write-ahead) journal — the JBD2 model used by the
    ext4-DAX / xfs-DAX / SplitFS baselines.

    Metadata updates are buffered in the running transaction (in DRAM) and
    become durable at {!commit}: the committer takes a single global lock
    — the stop-the-world fsync behaviour the paper blames for ext4/xfs's
    poor scalability (§5.6) — writes every buffered record plus a commit
    block to the circular journal, persists it, then checkpoints the new
    bytes in place.

    Recovery replays committed transactions found in the journal and
    discards the rest (uncommitted buffered updates are simply lost, which
    is the metadata-consistency-only guarantee of this FS class, §3.3). *)

open Repro_util

type t

val bytes_needed : size:int -> int

val format : Repro_pmem.Device.t -> Cpu.t -> off:int -> size:int -> t
val attach : Repro_pmem.Device.t -> off:int -> size:int -> t

val add : t -> Cpu.t -> addr:int -> data:string -> unit
(** Buffer a metadata update in the running transaction and apply it to
    the in-place location immediately in DRAM terms — the PM in-place
    write happens at commit (checkpoint).  Records are coalesced by
    address. *)

val commit : t -> Cpu.t -> unit
(** Flush the running transaction (no-op when empty).  Takes the global
    journal lock. *)

val running_records : t -> int

val recover : t -> Cpu.t -> int
(** Replay fully-committed transactions left in the journal; returns how
    many were replayed.  Buffered-but-uncommitted updates are gone.  Each
    record carries a CRC32C over its header and payload; replay stops at
    the first record that fails to verify, so a corrupt commit block or
    descriptor is refused rather than replayed. *)
