(** Concurrency scenarios for the race detector.

    The {!clean} suite encodes the per-CPU discipline the design relies
    on and must stay silent under every explored schedule; the {!racy}
    suite plants known violations the detector must flag. *)

val unlocked_alloc : Race.scenario
(** One shared allocator pool updated from every CPU without a lock.
    Racy: the detector must report it under any schedule. *)

val pm_shared_line : Race.scenario
(** Every thread stores to the same PM cache line unsynchronised.  Racy,
    caught via the device event stream. *)

val clean : Race.scenario list
val racy : Race.scenario list
val all : Race.scenario list
val find : string -> Race.scenario option
