(** Byte-size constants and formatting shared across the simulator. *)

val cacheline : int (* 64 B: PM write/flush granularity *)
val kib : int
val mib : int
val gib : int
val base_page : int (* 4 KiB *)
val huge_page : int (* 2 MiB *)

val round_up : int -> int -> int
(** [round_up v quantum] rounds [v] up to a multiple of [quantum]. *)

val round_down : int -> int -> int
val is_aligned : int -> int -> bool
