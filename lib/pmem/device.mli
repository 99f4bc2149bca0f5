(** Simulated byte-addressable persistent-memory device.

    The device models what the paper's file systems see on Intel Optane DC
    PM: a flat physical address space accessed by loads and stores at
    cache-line (64B) granularity, with [clwb]-style flushes and store
    fences.  Every access charges simulated nanoseconds to the accessing
    {!Repro_util.Cpu.t}'s clock according to {!Cost.t}.  The device keeps
    no counters of its own: when the {!Repro_stats.Stats} registry is
    enabled, each access is counted there per ambient {!Site.t}
    ("pm.store_bytes", "pm.nt_store_bytes", "pm.load_bytes",
    "pm.flush_lines", "pm.fences").

    {2:storage Storage}

    The image is a table of fixed 64 KiB chunks.  A fresh device points
    every entry at one shared, never-written zero chunk, and a
    {!crash_image} copies only the table: it shares every chunk with its
    source.  A chunk reachable from two devices is owned by neither, and
    whichever device first stores to it copies that one chunk.  Loads and
    {!peek} read chunks in place and never copy one.  A fresh device or a
    crash image therefore costs O(chunks written), not O(size).

    The zero chunk is one entry of a process-wide table of {e uniform}
    chunks, one per byte value, made on first use and never stored to.
    A {!write_string} or {!write_string_nt} piece that covers a whole
    chunk, from a string whose every byte is [c], points that chunk at
    [c]'s uniform chunk instead of copying 64 KiB (aging's payloads are
    [String.make n c]).  Whether a source is uniform is scanned once per
    distinct string and remembered in a few-slot weak memo keyed on
    physical equality, made by the device's first whole-chunk string
    store; a bytes source is mutable and never shares.  An owned chunk
    that such a store displaces joins the device's spare list, and the
    next copy-on-write copies into a spare before it allocates, so the
    device never holds more chunks than it has entries.  Sharing changes
    no charge, event, stat, tracked line or poison repair.

    {2 Crash semantics}

    When tracking is enabled, stores since the last fence are recorded along
    with the bytes they overwrote.  A store becomes durable only once it has
    been flushed and a subsequent fence has executed (conservatively; a real
    cache may also evict lines early, which the crash explorer models by
    allowing {e any} subset of pending lines to survive).  {!crash_image}
    materialises the device contents for a chosen surviving subset, which is
    what the CrashMonkey-style checker replays recovery against. *)

module Cost : sig
  type t = {
    read_ns_per_cl : float;  (** latency charge per 64B cache line read *)
    write_ns_per_cl : float; (** charge per 64B cache line written *)
    read_ns_per_byte : float;  (** bandwidth term for bulk reads *)
    write_ns_per_byte : float; (** bandwidth term for bulk writes *)
    flush_ns : float;        (** one clwb *)
    fence_ns : float;        (** one sfence *)
    remote_read_factor : float;  (** multiplier for cross-NUMA reads *)
    remote_write_factor : float; (** multiplier for cross-NUMA writes *)
  }

  val optane : t
  (** Derived from the paper's §2.1 characterisation: 64B accesses cost
      100–200ns, read bandwidth ~1/3 of DRAM, write bandwidth ~0.17x DRAM,
      remote writes costlier than remote reads. *)

  val free : t
  (** Zero-cost model for unit tests that only check functional behaviour. *)
end

(** {2 Durability instrumentation}

    The device exposes its access stream to observers (the
    {!Repro_sanitizer} durability lint, the race detector): every charged
    store, load, flush and fence, plus {e protocol annotations} through
    which journaling code declares transactional intent.  Events carry the ambient {!Site.t}
    installed with {!with_site}, so diagnostics name the layer and
    operation at fault. *)

type protocol =
  | Txn_begin of { txn : int }
  | Txn_commit of { txn : int }
      (** The commit record is about to persist; every [Covered] range of
          this transaction must already be durable. *)
  | Txn_abort of { txn : int }
  | Covered of { txn : int; addr : int; len : int }
      (** A journal entry protecting [addr, addr+len) is durable; in-place
          updates of the range are now crash-safe. *)
  | Fresh of { addr : int; len : int }
      (** Newly allocated and unreachable from any persistent structure:
          initializing stores need no undo coverage (initialize-then-
          publish). *)
  | Recovery_begin  (** Subsequent loads are recovery input. *)
  | Recovery_end

type event =
  | Store of { off : int; len : int; nt : bool }
  | Load of { off : int; len : int }
  | Flush of { off : int; len : int }
  | Fence
  | Protocol of protocol

type t

val create : ?cost:Cost.t -> ?numa_nodes:int -> size:int -> unit -> t
(** A device of [size] bytes (rounded up to a cache line), zero-filled. *)

val size : t -> int

val node_of_offset : t -> int -> int
(** NUMA node owning a physical offset (equal-sized stripes). *)

val cost : t -> Cost.t

(** {2 Data access}  All offsets/lengths, on the device and in the
    caller's [src]/[dst] buffer, are validated before any charge;
    out-of-range access raises [Invalid_argument].  The
    {!Repro_util.Cpu.t} determines which clock is charged and whether NUMA
    remote-access penalties apply. *)

val read : t -> Repro_util.Cpu.t -> off:int -> len:int -> dst:bytes -> dst_off:int -> unit
val write : t -> Repro_util.Cpu.t -> off:int -> src:bytes -> src_off:int -> len:int -> unit
val read_string : t -> Repro_util.Cpu.t -> off:int -> len:int -> string
val write_string :
  t -> Repro_util.Cpu.t -> off:int -> src:string -> src_off:int -> len:int -> unit
(** [write] from an immutable source.  A piece of the range that covers
    a whole chunk, from a string whose every byte is the same, shares
    that byte's chunk instead of copying it (see {!section-storage}). *)

val memset : t -> Repro_util.Cpu.t -> off:int -> len:int -> char -> unit

val copy_within : t -> Repro_util.Cpu.t -> src:int -> dst:int -> len:int -> unit
(** Device-to-device copy (charges a read and a write). *)

(** {3 Non-temporal variants}  Bulk-data stores that bypass the cache:
    durable at the next {!fence} with no per-line flush (the movnt +
    sfence fast path PM file systems use for data). *)

val write_nt : t -> Repro_util.Cpu.t -> off:int -> src:bytes -> src_off:int -> len:int -> unit
val write_string_nt :
  t -> Repro_util.Cpu.t -> off:int -> src:string -> src_off:int -> len:int -> unit
val memset_nt : t -> Repro_util.Cpu.t -> off:int -> len:int -> char -> unit
val copy_within_nt : t -> Repro_util.Cpu.t -> src:int -> dst:int -> len:int -> unit

val read_u64 : t -> Repro_util.Cpu.t -> off:int -> int64
val write_u64 : t -> Repro_util.Cpu.t -> off:int -> int64 -> unit
(** Little-endian 8-byte accessors; 8-byte aligned stores are the atomic
    unit PM systems rely on for commit records. *)

val peek : t -> off:int -> len:int -> dst:bytes -> dst_off:int -> unit
(** Copy device contents without charging time, emitting an event or
    counting a stat.  Used by the memory simulator for data whose access
    cost was already accounted to the processor-cache model. *)

val read_in_place :
  t -> Repro_util.Cpu.t -> off:int -> len:int -> (bytes -> int -> int -> unit) -> unit
(** {!read} without the copy: the same checks, charge, [Load] event and
    stat, then [f b o n] for each run of the range that lies in one chunk
    of the image, in address order, where [b] is the device's own
    storage and the run is [n] bytes at [o] in it.  Chunks are 64 KiB and
    aligned, so a run never splits a record aligned to a divisor of
    that.  [f] reads [b] and returns; it must not store into [b] (it may
    be shared with other devices) or keep it past the call. *)

val touch_read : t -> Repro_util.Cpu.t -> off:int -> len:int -> unit
(** Charge the time and stats of a read without copying data. *)

(** {2 Persistence} *)

val flush : t -> Repro_util.Cpu.t -> off:int -> len:int -> unit
(** clwb every cache line intersecting the range. *)

val fence : t -> Repro_util.Cpu.t -> unit
(** sfence: all previously flushed lines become durable. *)

val persist : t -> Repro_util.Cpu.t -> off:int -> len:int -> unit
(** [flush] then [fence]. *)

(** {2 Crash testing} *)

val set_tracking : t -> bool -> unit
(** Enable/disable pending-store tracking (off by default; costs memory). *)

val pending_lines : t -> int list
(** Cache-line indices written since the last fence (not yet durable). *)

val pending_old : t -> int -> bytes option
(** The pre-store contents of a pending cache line (a 64B copy), or [None]
    when the line has no store pending.  Fault campaigns use it to pick
    8-byte words that actually changed before registering a torn word. *)

val fence_sweep_visits : t -> int
(** Cumulative number of pending-line entries examined by fence sweeps
    since creation.  The fence cost model is O(lines flushed since the
    last fence), not O(all pending lines); tests assert this scaling
    without measuring wall-clock time. *)

val crash_image : t -> persisted:(int -> bool) -> t
(** A fresh, tracking-off device representing post-crash contents: pending
    lines for which [persisted line = false] are reverted to their
    pre-store bytes, then every registered {!Torn_word} on a pending line
    reverts regardless of the line choice, and poisoned lines carry over
    (media faults survive crashes).  Raises [Invalid_argument] if tracking
    is off. *)

(** {2 Media-fault injection}

    Simulated media errors, composing with the crash machinery above: a
    campaign plants faults, then mount/scrub must detect them.  Injection
    bypasses the store path (no events, no cost) — media corruption is
    invisible to the memory-ordering model until a load trips over it. *)

exception Media_error of { off : int }
(** Simulated machine-check exception: a load touched the poisoned cache
    line starting at [off].  Raised before any data is copied or cost
    charged, from every read path including {!peek}. *)

type fault =
  | Bit_flip of { off : int; bit : int }
      (** Flip bit [bit] (0..7) of the byte at [off] — silent corruption
          only checksums can catch. *)
  | Torn_word of { off : int }
      (** Register the 8-byte-aligned word containing [off] to tear at the
          next {!crash_image}. *)
  | Poison_line of { off : int }
      (** Mark the 64B line containing [off] uncorrectable: loads raise
          {!Media_error} until some store overwrites the entire line. *)

val inject : t -> fault -> unit
(** Plant one fault.  When the stats registry is enabled, bumps
    "fault.injected" (labelled by kind). *)

val poisoned_lines : t -> int list
(** Currently-poisoned cache-line indices (sorted). *)

val with_site : t -> Site.t -> (unit -> 'a) -> 'a
(** Run a thunk with the ambient access site set (restored on exit,
    including by exception).  Nested annotations shadow outer ones. *)

type hook = Repro_util.Cpu.t option -> Site.t -> event -> unit
(** An event observer.  Data-movement events ([Store]/[Load]/[Flush]/
    [Fence]) carry [Some cpu] — the accessing CPU, which is how the race
    detector sees cross-CPU stores to the same cache line; [Protocol]
    annotations carry [None].  Hooks run inside the access, after the
    data movement and cost accounting; an exception a hook raises aborts
    the caller (how the sanitizer's strict mode stops on the first
    violation). *)

type hook_id

val add_event_hook : t -> hook -> hook_id
(** Install an observer without disturbing the others.  Every installed
    hook sees every event, in installation order — the sanitizer, the
    race detector and ad-hoc tracing compose. *)

val remove_event_hook : t -> hook_id -> unit
(** Uninstall one observer; unknown ids are ignored. *)

val annotate : t -> protocol -> unit
(** Forward a protocol annotation to the observers (no-op when none). *)

(** {3 Crash-point injection}  The crash explorer aborts an operation at a
    chosen fence; the pending-store set at that instant defines the
    reachable crash states. *)

val fence_seq : t -> int
(** Number of fences executed since creation (or {!reset_fence_seq}). *)

val reset_fence_seq : t -> unit

val crash_at :
  ?on_crash:(int list -> unit) -> t -> fence:int -> (unit -> unit) -> int list option
(** [crash_at t ~fence f]: the crash explorers' one primitive.  Turns
    tracking on, resets the fence sequence and runs [f], aborting it by
    an exception raised at fence number [fence] (1-based, counted from
    the call).  Returns [Some pending] — the in-flight lines captured at
    that instant, before the fence commits anything — or [None] when [f]
    finished first.  The hook is removed on every exit path.  Code
    unwinding from the abort (a transaction's rollback) still runs and
    still touches the device; [on_crash] runs inside the aborting fence,
    before that, for a caller that needs the exact crash-moment media
    (e.g. a {!crash_image} of it). *)

(** {2 Host-file images}  The CLI tools persist device images as ordinary
    files so a simulated file system survives across program runs. *)

val save_file : t -> string -> unit
val load_file : ?cost:Cost.t -> ?numa_nodes:int -> string -> t
