(** srccheck: AST-based static analysis of this repository's own sources.

    Six rules over real parse trees — the four syntactic ones from the
    original srccheck ({!Lock_order}, {!Persist_sites}, {!Ownership},
    {!Error_discipline}) plus the two flow-sensitive flowcheck rules
    ({!Flowcheck} persist-order dataflow, {!Determinism}).  The engine
    is deliberately small: rules are [Source.file list -> Diag.t list]
    functions; suppression is an explicit per-rule/per-file allowlist
    with a reason, and suppressed counts are reported so an allowlist
    can never silently grow. *)

type allow = {
  a_rule : string;
  a_file : string;  (** normalised path the suppression applies to *)
  a_reason : string;
}

type report = {
  diags : Diag.t list;  (** surviving diagnostics, sorted by position *)
  suppressed : int;  (** diagnostics removed by the allowlist *)
  files_scanned : int;
  parse_errors : int;  (** unparseable files (their ["parse"] diags are in [diags]) *)
}

val rules : (string * (Source.file list -> Diag.t list)) list
(** [(rule-id, checker)]; the ids are the ones diagnostics carry. *)

val flow_rules : string list
(** [["persist-order"; "determinism"]] — the subset [pmcheck flowcheck]
    runs. *)

val run : ?allowlist:allow list -> ?only:string list -> Source.file list -> parse:Diag.t list -> report
(** Run rules over already-loaded files ([only] restricts to a rule-id
    subset; default all).  [parse] diagnostics are folded into the
    report (and force exit code 2).  Diagnostics are {!Diag.normalize}d:
    sorted and deduplicated, so reports are byte-stable. *)

val analyze : ?allowlist:allow list -> ?only:string list -> string list -> report
(** [analyze roots]: {!Source.load_roots} + {!run} — the srccheck entry
    point, normally over [["lib"; "bin"]]. *)

val analyze_string : ?only:string list -> path:string -> string -> Diag.t list
(** Rules over a single synthetic file — the fixture hook for tests.
    The [path] matters: rules scope by it (e.g. [lib/core/x.ml] is inside
    the error-discipline and poly-compare scopes, [lib/pmem/x.ml] is
    exempt from persist-site and persist-order). *)

val report_to_json : report -> Repro_stats.Json.t
(** The [--format=json] payload: scan counters plus every diagnostic as
    a structured record. *)

val exit_code : report -> int
(** 0 clean, 1 violations, 2 parse errors. *)
