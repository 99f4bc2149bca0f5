(** Deterministic cooperative thread simulator.

    Multi-threaded experiments (the paper's Figure 10 scalability study,
    Filebench, the per-CPU journal contention model) run simulated threads
    whose clocks advance as they touch PM, fault, and wait on locks.  The
    scheduler is a discrete-event loop: under the default
    {!Earliest_clock} policy it always resumes the runnable thread with
    the smallest simulated clock, so lock-contention effects (global JBD2
    commit lock vs per-CPU journals) fall out naturally and every run is
    reproducible.  The exploration policies ({!Random_walk}, {!Pct})
    replace that tiebreak with a seeded random or priority-based (PCT-lite)
    choice so the race detector ({!Repro_race}) can shake alternative
    interleavings; both are deterministic functions of their seed, so any
    failing schedule replays exactly.

    Threads are OCaml effect-based fibers; they must only block through
    {!lock}/{!yield} (cooperative).  Outside {!run}, {!lock} and {!unlock}
    degrade to free uncontended acquisition so single-threaded code can
    share the same code paths. *)

open Repro_util

type mutex

val create_mutex : ?name:string -> unit -> mutex
(** [name] declares the mutex's {e lock class} for order diagnostics; the
    convention is "file-stem:lock-site label" (["undo_journal:t.mu"]),
    matching the node names of the srccheck static lock-order graph.
    Several mutexes may share a name (one class, many instances).  Only
    name genuinely-global mutexes: naming per-object locks (file/inode)
    would make legitimate hierarchical parent→child nesting look like a
    same-class self-cycle. *)

val reserve_mutex_id : unit -> int
(** Take the id the next {!create_mutex} would have given, without
    creating the mutex: a scan that builds its objects later still
    numbers their locks in scan order. *)

val create_reserved_mutex : int -> mutex
(** An anonymous mutex with an id from {!reserve_mutex_id}; each reserved
    id is used at most once. *)

val mutex_id : mutex -> int
(** Process-unique id, stable for the lifetime of the mutex.  Concurrency
    diagnostics use it to name locks ("m3") in lockset reports. *)

val mutex_name : mutex -> string
(** The declared class name, or ["m<id>"] when anonymous. *)

val lock : mutex -> unit
(** Acquire; blocks the calling simulated thread while held by another.
    FIFO handoff.  Charges a small uncontended-acquisition cost. *)

val unlock : mutex -> unit
(** Raises [Invalid_argument] when the lock is not held by the caller. *)

val with_lock : mutex -> (unit -> 'a) -> 'a

val yield : unit -> unit
(** Let other runnable threads run (a scheduling point, not a
    happens-before edge). *)

val self : unit -> Cpu.t
(** The calling thread's CPU context.  Outside {!run}, a process-wide
    default CPU 0. *)

val running : unit -> bool
(** [true] while inside {!run} (i.e. the caller is a simulated thread). *)

val handoff_ns : int
(** Simulated cost of transferring a contended mutex to the next waiter
    (FIFO).  A waiter that blocked at [b] and is handed the lock when the
    holder releases at [r] acquires at [r + handoff_ns] and accrues
    [r + handoff_ns - b] of lock wait. *)

(** {2 Instrumentation}

    A single monitor observes thread lifecycle, lock transfers, and
    annotated shared-state accesses; the dynamic race detector
    ({!Repro_race.Race}) is the intended client.  Events only fire inside
    {!run} — the degraded outside-scheduler mode is single-threaded.
    [on_acquire] fires when the lock is actually transferred: immediately
    for an uncontended {!lock}, at handoff time (during the releasing
    thread's {!unlock}) for a blocked waiter, always after the matching
    [on_release]. *)

type monitor = {
  on_spawn : thread:int -> unit;  (** thread (= CPU id) exists and is runnable *)
  on_finish : thread:int -> unit;  (** thread's body returned *)
  on_acquire : thread:int -> mutex:int -> unit;
  on_release : thread:int -> mutex:int -> unit;
  on_yield : thread:int -> unit;
  on_access : thread:int -> obj:string -> write:bool -> site:string -> unit;
}

val set_monitor : monitor option -> unit
(** Install/uninstall the monitor.  One slot: installing replaces any
    previous monitor. *)

val monitored : unit -> bool
(** [true] when a monitor is installed and a run is active.  Annotation
    sites use it to skip building [obj]/[site] strings on the hot path:
    [if Sched.monitored () then Sched.access ~obj:(...) ...]. *)

val access : obj:string -> write:bool -> site:string -> unit
(** Declare an access to a shared DRAM object (allocator pool, journal
    cursor, index) for the monitor.  [obj] names the object instance
    ("alloc.pool[2]"), [site] the accessing code ("alloc.alloc").  A no-op
    outside {!run} or without a monitor. *)

(** {2 Lock-order recorder}

    Lockdep-style observed acquired-before relation: whenever a thread
    acquires a mutex while holding others, each (held, acquired) pair is
    recorded.  Every acquisition path is covered — uncontended, FIFO
    handoff to a blocked waiter, and the degraded outside-{!run} mode —
    so the relation is exactly what actually happened.  State is global
    and accumulates across sequential runs until {!Lock_order.reset}:
    srccheck's dynamic probe runs a whole scenario suite and checks the
    union against the static graph (static ⊇ observed).  When
    {!Repro_stats.Stats.enabled}, bumps [sched.lock_order.acquisitions]
    and [sched.lock_order.edges].  All report functions are total. *)

module Lock_order : sig
  val reset : unit -> unit

  val acquisitions : unit -> int
  (** Total acquisitions recorded since the last {!reset}. *)

  val edges : unit -> (int * int) list
  (** Distinct (held-mutex-id, acquired-mutex-id) pairs, sorted. *)

  val named_edges : unit -> (string * string) list
  (** The edges whose {e both} endpoints are explicitly named mutexes, as
      class names — the statically checkable subset. *)

  val cycle : unit -> string list option
  (** A cycle in the observed relation (mutex labels, ["m<id>"] for
      anonymous locks), or [None] if acyclic.  An observed cycle is a
      real potential deadlock regardless of what any schedule did. *)
end

(** {2 Scheduling policies} *)

type policy =
  | Earliest_clock
      (** Deterministic default: resume the runnable thread with the
          smallest simulated clock (ties to the lowest thread id). *)
  | Random_walk of { seed : int }
      (** At every scheduling point pick uniformly among runnable
          threads, seeded; deterministic given the seed. *)
  | Pct of { seed : int }
      (** PCT-lite: seeded random thread priorities, always run the
          highest-priority runnable thread, and at each step demote the
          running thread below everyone with probability 1/16 (the
          priority-change points of PCT without knowing the step count
          in advance).  Deterministic given the seed. *)

type stats = {
  makespan_ns : int;  (** max thread clock at completion *)
  total_busy_ns : int;  (** sum of thread clocks *)
  lock_wait_ns : int;  (** total time threads spent blocked on mutexes *)
}

val run : ?numa_nodes:int -> ?policy:policy -> threads:int -> (Cpu.t -> unit) -> stats
(** [run ~threads body] starts [threads] fibers, thread [i] on CPU [i]
    (NUMA node [i * numa_nodes / threads]), and executes them to
    completion.  Not reentrant: calling it from inside a fiber raises
    [Invalid_argument "Sched.run: already running"].  All global
    scheduler state (active flag, current thread, lock-wait accounting)
    is reset on entry and on every exit path, so sequential runs in one
    process cannot leak state into each other. *)
