(** CrashMonkey-style crash-consistency checker for WineFS (§5.2).

    For every workload, the checker re-executes the test sequence with a
    crash injected at each successive store fence.  At the crash point it
    enumerates the legal persisted subsets of in-flight stores (exhaustive
    when few lines are pending, corner cases + random sampling otherwise),
    materialises each crash image, remounts it — running WineFS's per-CPU
    journal recovery — and verifies that the recovered tree equals the
    state either {e before} or {e after} the in-flight operation (atomic,
    synchronous operations; §3.3 strict mode). *)

type result = {
  workloads_run : int;
  crash_points : int;
  states_checked : int;
  failures : (string * string) list;  (** (workload, diagnosis) *)
}

val run :
  ?mode:Repro_vfs.Types.mode ->
  ?workloads:Ace.workload list ->
  ?max_random_subsets:int ->
  ?device_size:int ->
  unit ->
  result
(** Run the campaign against WineFS.  Strict mode checks full data +
    metadata atomicity; [Relaxed] restricts the oracle to metadata
    (file sizes and the namespace, not file contents). *)

val signature_of : Repro_vfs.Fs_intf.handle -> Repro_util.Cpu.t -> string
(** Canonical description of the whole tree (paths, kinds, sizes, content
    digests) — the oracle's comparison key. *)

(** {2 Campaign plumbing shared with {!Faultcheck} and {!Torturecheck}} *)

val fresh : device_size:int -> Repro_pmem.Device.t * Repro_vfs.Types.config * Winefs.Fs.t
(** WineFS (2 CPUs, 256 inodes each) freshly formatted on a zero-cost device. *)

val handle : Winefs.Fs.t -> Repro_vfs.Fs_intf.handle

val nonblank_inode_headers : Repro_pmem.Device.t -> Winefs.Layout.t -> (int * int) array
(** [(ino, off)] of every non-blank inode-table header of a quiesced
    image, in table order: the slots a scrub checksum-verifies. *)

val expected_signatures :
  ?with_content:bool -> device_size:int -> Repro_util.Cpu.t -> Ace.workload -> string array
(** Element [i] is the tree signature after the setup and the first [i]
    test ops: a crash inside op [i] must recover to element [i] or [i + 1]. *)

val each_crash :
  ?max_fences:int -> device_size:int -> Repro_util.Cpu.t -> Ace.workload ->
  (fence:int -> op:int -> Repro_pmem.Device.t -> Repro_vfs.Types.config -> int list -> unit) ->
  unit
(** Re-run the workload on a fresh image, crashing its test phase at
    fence 1, 2, ... ({!Repro_pmem.Device.crash_at}) until it completes
    or [max_fences] is passed.  The callback judges each crash: [op]
    indexes the in-flight test op; it gets the crashed device, its
    config and the in-flight lines. *)

val recovery_time : files:int -> file_bytes:int -> int * int
(** §5.2 "Time to recover": build a file system with [files] files of
    [file_bytes] each, crash it (no clean unmount), remount, and return
    [(recovery_ns, files_scanned)]. *)
