(** Reference model of one {!Repro_memsim.Lru_sets} set (lists).

    The set is a list of exactly [ways] slots, MRU first, [-1] for an
    empty slot, rebuilt on every operation: slow and obviously right.
    Differential tests drive it and an [Lru_sets] whose keys all land in
    one set with the same operation stream, and compare every result.
    Keys are non-negative: [-1] marks a hole, as in [Lru_sets]. *)

type t

val create : ways:int -> t

val access : t -> int -> bool
(** Hit test; the key then becomes MRU.  A miss drops the last slot,
    whatever it holds (a hole in an earlier slot stays). *)

val probe : t -> int -> bool
val invalidate : t -> int -> unit
val clear : t -> unit

val slots : t -> int list
(** MRU first, [-1] for holes. *)
