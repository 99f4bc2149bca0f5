(** Persistence-ordering sanitizer: a PMTest-style durability lint over the
    simulated PM device.

    The sanitizer shadows every cache line of a {!Repro_pmem.Device.t} with
    a small state machine — clean/durable, dirty, flushed-awaiting-fence —
    driven by the device's event stream, and checks the WineFS crash-
    consistency discipline (undo entries durable before in-place updates,
    commit records fenced after all covered stores) against it.  Journaling
    layers declare intent with {!Repro_pmem.Device.annotate}; PM-touching
    code labels itself with {!Repro_pmem.Device.with_site} so diagnostics
    name the layer and operation at fault.

    {2 Rules}

    - [R1-missing-flush]: a transaction persisted its commit record while a
      covered line was still dirty (never flushed).
    - [R2-missing-fence]: a flushed line was never fenced before the run
      ended, or recovery read back a line that was not yet durable.
    - [R3-redundant-flush]: flushing a clean or already-flushed line.  A
      performance lint, aggregated per site, severity {!Warning}.
    - [R4-undo-protocol]: an in-place store to a journal-covered range
      executed before its undo entry was durable.
    - [R5-commit-order]: a covered line was flushed but not yet fenced when
      the commit record persisted (ordering relies on luck, not sfence). *)

type rule =
  | R1_missing_flush
  | R2_missing_fence
  | R3_redundant_flush
  | R4_undo_protocol
  | R5_commit_order

val all_rules : rule list
val rule_name : rule -> string

type severity = Error | Warning

type diag = {
  rule : rule;
  severity : severity;
  site : Repro_pmem.Site.t;  (** layer/operation of the offending store or flush *)
  line : int;  (** cache-line index *)
  count : int;  (** occurrences folded into this diagnostic (R3 aggregates) *)
  detail : string;
}

val diag_offset : diag -> int
(** Byte offset of the diagnosed cache line. *)

val diag_to_string : diag -> string

exception Violation of diag
(** Raised from inside the offending device access in strict mode. *)

type t

val attach : ?strict:bool -> ?rules:rule list -> Repro_pmem.Device.t -> t
(** Install the sanitizer as one of the device's event observers (via
    {!Repro_pmem.Device.add_event_hook}, so it composes with the race
    detector and other hooks).  [strict] (default false) raises
    {!Violation} at the first [Error]-severity diagnostic; [rules]
    (default {!all_rules}) selects the checks. *)

val detach : t -> unit
(** Remove the observer (other hooks on the device are untouched);
    accumulated diagnostics remain readable. *)

val finish : t -> diag list
(** Run end-of-stream checks (R2 unfenced lines, R3 aggregation) and
    return all diagnostics in discovery order. *)

val with_device :
  ?strict:bool -> ?rules:rule list -> Repro_pmem.Device.t -> (t -> 'a) -> 'a * diag list
(** [with_device dev f] attaches, runs [f], then {!finish}es and
    {!detach}es (also detaching if [f] raises). *)
