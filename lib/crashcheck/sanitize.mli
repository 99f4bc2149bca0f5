(** Durability-lint harness: run workloads against WineFS with the
    {!Repro_sanitizer} attached to the simulated PM device.

    Each workload gets a fresh device; the run formats the file system,
    executes the workload, unmounts, then remounts and unmounts again so
    the recovery path's reads are checked against the shadow durability
    state (rule R2).  Violations carry the {!Repro_pmem.Site.t} of the
    offending access. *)

module Sanitizer = Repro_sanitizer.Sanitizer

type report = { name : string; diags : Sanitizer.diag list }

val total_errors : report list -> int

val run_ace :
  ?strict:bool ->
  ?rules:Sanitizer.rule list ->
  ?mode:Repro_vfs.Types.mode ->
  Ace.workload list ->
  report list
(** One report per ACE workload.  [strict] raises
    {!Sanitizer.Violation} inside the first offending access. *)

val run_micro : ?strict:bool -> ?rules:Sanitizer.rule list -> unit -> report list
(** A small syscall + mmap micro-workload suite under the sanitizer. *)

val run_custom :
  ?strict:bool ->
  ?rules:Sanitizer.rule list ->
  ?mode:Repro_vfs.Types.mode ->
  name:string ->
  (Repro_vfs.Fs_intf.handle -> Repro_util.Cpu.t -> unit) ->
  report
(** Run an arbitrary workload body under the harness (used by tests). *)
