(** Dynamic data-race detector and schedule-exploration harness for the
    per-CPU concurrency model.

    The deterministic simulator runs one fiber at a time, so interleavings
    never corrupt state {e in simulation} — which is exactly how they can
    hide races that would be real on hardware.  The detector checks the
    discipline instead of the outcome, with two passes over one access
    stream:

    - {b FastTrack happens-before}: per-thread and per-mutex vector
      clocks, advanced at spawn and at lock release→acquire edges; each
      location keeps its last-write epoch and per-thread read clocks.  An
      access unordered with a prior conflicting access is an {!Hb} race.
    - {b Eraser lockset}: once a location is accessed by a second thread
      it keeps the intersection of lock sets held across accesses; a
      written location whose candidate set goes empty is a {!Lockset}
      race even when this particular schedule ordered the accesses.

    Locations come from PM device events (tagged with the accessing CPU,
    keyed by cache-line granule) and from {!Repro_sched.Sched.access}
    annotations on shared DRAM structures (allocator pools, journal
    cursors, DRAM indexes).

    {!explore} shakes a scenario under many seeded schedules
    ({!Repro_sched.Sched.policy} [Random_walk]/[Pct]); every reported
    race carries the seed that reproduces it, and {!check} [~seed]
    replays that single schedule. *)

type kind =
  | Hb  (** unordered under happens-before in the observed schedule *)
  | Lockset  (** no consistent lock protects the shared, written location *)

type access_info = {
  a_thread : int;  (** simulated CPU id *)
  a_site : string;  (** {!Repro_pmem.Site.t} label or annotation site *)
  a_locks : int list;  (** sorted {!Repro_sched.Sched.mutex_id}s held *)
  a_write : bool;
}

type race = {
  r_kind : kind;
  r_loc : string;  (** ["pm:[0x...,0x...)"] granule or annotated object name *)
  r_first : access_info;
  r_second : access_info;
  r_seed : int option;  (** schedule seed; [None] under [Earliest_clock] *)
}

val race_to_string : race -> string

(** {2 Detector lifecycle}

    For ad-hoc use; {!check} and {!explore} wrap this. *)

type t

val attach : ?granularity:int -> ?track_loads:bool -> Repro_pmem.Device.t -> t
(** Install the detector as a device event observer (composing with the
    sanitizer via {!Repro_pmem.Device.add_event_hook}) and as the
    scheduler monitor.  [granularity] (default one cache line) sets the
    PM location size; [track_loads] (default true) also checks read/write
    races on PM, not just write/write. *)

val detach : t -> unit
(** Remove both hooks and, when {!Repro_stats.Stats.enabled}, publish
    ["race.accesses_checked"] and ["race.races_found"] counters.
    Accumulated races remain readable. *)

val accesses_checked : t -> int
val races_found : t -> int

(** {2 Scenarios and schedule exploration} *)

type scenario = {
  sc_name : string;
  sc_threads : int;
  sc_prepare : unit -> Repro_pmem.Device.t * (Repro_util.Cpu.t -> unit);
      (** Build fresh device + thread body; called once per schedule so
          runs are independent. *)
}

val policy_of_seed : int -> Repro_sched.Sched.policy
(** Deterministic seed→policy mapping used by {!check} and {!explore}:
    even seeds explore with [Random_walk], odd with [Pct].  A reported
    seed therefore pins down the entire schedule. *)

val check :
  ?granularity:int -> ?track_loads:bool -> ?seed:int -> scenario -> race list
(** Run the scenario once under the detector — with the deterministic
    [Earliest_clock] schedule when [seed] is absent, or under
    [policy_of_seed seed] to replay an explored schedule — and return
    the races with [r_seed] filled in. *)

type outcome = {
  o_name : string;
  o_schedules : int;  (** schedules run, including the earliest-clock baseline *)
  o_races : race list;  (** distinct races across all schedules, each with its seed *)
  o_failing_seeds : int list;  (** seeds whose schedule produced at least one race *)
}

val explore :
  ?granularity:int -> ?track_loads:bool -> ?schedules:int -> seed:int -> scenario -> outcome
(** Run the earliest-clock baseline plus [schedules] (default 50) seeded
    schedules, deriving per-schedule seeds from [seed].  Bumps the
    ["race.schedules_explored"] counter when stats are enabled. *)
