module Stats = Repro_stats.Stats

let require_writable ~read_only =
  if read_only then
    Types.err EROFS "file system is degraded (mounted read-only after media errors)"

type tally = { mutable detected : int; mutable repaired : int; mutable refused : int }

let count_fault t ~detected ~repaired ~refused =
  let mirror name n = if n > 0 then Stats.count name n in
  t.detected <- t.detected + detected;
  t.repaired <- t.repaired + repaired;
  t.refused <- t.refused + refused;
  mirror "fault.detected" detected;
  mirror "fault.repaired" repaired;
  mirror "fault.refused" refused
