(** Rule [lock-order]: build the acquired-before graph of
    [Sched.lock]/[Sched.with_lock] sites and reject cycles.

    Nodes are {e mutex-naming sites}: the syntactic path of the mutex
    expression qualified by the defining module
    ([basefs:parent.lock], [txn:s.lock]).  Edges come from two sources:

    - {b lexical nesting} — a [with_lock B] inside the thunk of a
      [with_lock A] yields [A -> B];
    - {b call summaries} — a call to a function [g] while holding [A]
      yields [A -> L] for every lock label [L] that [g] can acquire,
      computed as a fixpoint over the intra-repo call graph (so
      [Txn.with_txn] inside a [with_lock f.lock] thunk contributes
      [f.lock -> txn:s.lock] even though the acquisition is in another
      file).

    A cycle in this graph is a potential ABBA deadlock even when no
    explored schedule triggers it — the lockdep argument: two phases that
    never overlap today can be made to overlap by any future change.
    The runtime recorder ({!Repro_sched.Sched.Lock_order}) provides the
    observed counterpart; {!containment} checks static ⊇ observed. *)

type graph

val build : Source.file list -> graph * Diag.t list
(** The acquired-before graph over all implementation files, plus
    immediate diagnostics (same-label self-nesting, i.e. re-acquiring a
    label already held — self-deadlock on these non-reentrant mutexes). *)

val edges : graph -> (string * string) list

val containment_diags : graph -> observed:(string * string) list -> Diag.t list
(** Cross-check against runtime-observed acquired-before edges between
    {e named} mutexes: every observed edge must already be implied by the
    static graph ([reaches]), and both endpoints must be known static
    labels — otherwise the static analysis is blind to real lock nesting
    (or mutex names drifted from the code), which is reported. *)

val check : Source.file list -> Diag.t list
(** The rule entry point: [build] + self-nesting + [cycle_diags]. *)
