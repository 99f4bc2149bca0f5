(** Unified metrics registry and span tracing.

    Generalizes {!Repro_util.Counters} (flat name -> int) and
    {!Repro_util.Histogram} (one unnamed instance) into a registry of
    named, labelled instruments:

    - {b counters}: monotonically growing event counts
      (journal commits, allocator promotes, device fences);
    - {b gauges}: instantaneous levels that move both ways
      (free aligned extents, hole bytes, journal occupancy);
    - {b histograms}: log-bucketed latency distributions
      (per-op simulated latency).

    Instruments are identified by [name] plus a sorted label list, so
    the same metric can be split by site or operation
    ([pm.fences{site="journal.commit"}]).

    {b Spans} attribute simulated-clock time to operations: wrapping an
    operation in {!span} records its latency histogram, a count, and the
    {e self} time (elapsed minus time spent in nested spans), giving the
    per-layer attribution SplitFS-style analyses need.  Span nesting is
    tracked per calling CPU, so cooperative {!Repro_sched.Sched} fibers
    interleave safely.

    A process-wide {!global} registry backs the bench harness and CLI.
    Hot-path instrumentation (device stores, allocator gauges) is gated
    on {!enabled}, which defaults to [false] so unit tests and library
    users pay one boolean check per access; the bench harness and the
    [winefs_cli stats] subcommand switch it on.  Explicitly-created
    registries ignore the flag. *)

open Repro_util

type labels = (string * string) list
(** Sorted [(key, value)] pairs; order does not matter at call sites. *)

module Registry : sig
  type t

  val create : unit -> t
  val reset : t -> unit
  (** Drop every instrument and span frame; makespan returns to 0. *)

  val makespan_ns : t -> int
  (** Largest simulated-clock timestamp observed at a span end or via
      {!observe_clock}. *)

  val generation : t -> int
  (** Bumped by {!reset}: instrument handles resolved under an older
      generation point into dropped refs, so per-call-site caches (the
      PM device's per-site counter cells) revalidate against this. *)

end

val global : Registry.t

val set_enabled : bool -> unit
(** Enable/disable hot-path instrumentation of the {!global} registry. *)

val enabled : unit -> bool

val reset : unit -> unit
(** [Registry.reset global]. *)

module Counter : sig
  type t

  val v : ?registry:Registry.t -> ?labels:labels -> string -> t
  (** Get-or-create; the same (name, labels) pair always returns the same
      instrument. *)

  val incr : t -> unit
  val add : t -> int -> unit
  val get : t -> int
end

module Gauge : sig
  type t

  val v : ?registry:Registry.t -> ?labels:labels -> string -> t
  val set : t -> int -> unit
  val add : t -> int -> unit
  val get : t -> int
end

module Hist : sig
  type t

  val v : ?registry:Registry.t -> ?labels:labels -> string -> t
  val observe : t -> int -> unit
  val count : t -> int
  val percentile : t -> float -> int
  (** 0 when empty (see {!Repro_util.Histogram.percentile}). *)
end

val counter_add : ?registry:Registry.t -> ?labels:labels -> string -> int -> unit
(** One-shot lookup + add, for call sites whose labels vary per call
    (e.g. the ambient device {!Repro_pmem.Site}). *)

val count : string -> int -> unit
(** [counter_add name n] on the {!global} registry when {!enabled};
    one boolean test otherwise. *)

val gauge_set : ?registry:Registry.t -> ?labels:labels -> string -> int -> unit
val observe : ?registry:Registry.t -> ?labels:labels -> string -> int -> unit

val span : ?registry:Registry.t -> op:string -> Cpu.t -> (unit -> 'a) -> 'a
(** Run the thunk and record, under the [op] label:
    [op.latency_ns{op}] (histogram of simulated elapsed ns),
    [op.count{op}], [op.total_ns{op}] and [op.self_ns{op}] (elapsed minus
    nested-span time).  On the global registry with {!enabled} off this
    is just the thunk.  Exceptions still close the span. *)

(** {2 Export} *)

type hist_summary = {
  h_count : int;
  h_mean : float;
  h_min : int;
  h_max : int;
  h_p50 : int;
  h_p90 : int;
  h_p99 : int;
  h_p999 : int;
}

type snapshot = {
  s_counters : (string * labels * int) list;
  s_gauges : (string * labels * int) list;
  s_hists : (string * labels * hist_summary) list;
  s_makespan_ns : int;
}

val snapshot : ?registry:Registry.t -> unit -> snapshot
(** Sorted by (name, labels) so output is deterministic. *)

val to_json : ?registry:Registry.t -> unit -> Json.t
val pp : Format.formatter -> Registry.t -> unit
(** Human-readable dump (the [winefs_cli stats] output). *)
