(** Open-addressing hash table over non-negative int keys.

    The flat replacement for hot-path [Hashtbl]s (DESIGN §14): a
    power-of-two slot array with linear probing, multiplicative int
    hashing (never the runtime's polymorphic hash), and tombstone
    deletion.  Probe sequences are a pure function of the operation
    history, so every traversal is deterministic and replayable — the
    property the determinism lint enforces on the substrate.

    Keys must be [>= 0]; negative values are the internal empty/tombstone
    sentinels and are rejected with [Invalid_argument]. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [capacity] is rounded up to a power of two (minimum 8).  [dummy]
    seeds the value array and backs removed slots; it is never returned
    from a live binding. *)

val length : 'a t -> int
(** Number of live bindings. *)

val capacity : 'a t -> int

val mem : 'a t -> int -> bool
val find : 'a t -> int -> 'a option

val get : 'a t -> int -> default:'a -> 'a
(** Allocation-free lookup for hot paths. *)

val set : 'a t -> int -> 'a -> unit
(** Insert or replace.  Grows (rehashing deterministically) when
    live+tombstone occupancy would cross 3/4 of capacity. *)

val remove : 'a t -> int -> unit
(** No-op when the key is unbound; leaves a tombstone otherwise. *)

val clear : 'a t -> unit
(** Drop every binding, keeping the current capacity. *)

val copy : 'a t -> 'a t
(** Independent snapshot (values shared; probe counter starts at 0). *)

val fold : 'a t -> init:'b -> f:('b -> int -> 'a -> 'b) -> 'b
(** Slot order: deterministic given the operation history, but {e not}
    sorted.  Use {!keys_sorted} when a canonical order matters. *)

val keys_sorted : 'a t -> int list
(** Live keys in ascending order. *)

val probe_steps : 'a t -> int
(** Cumulative probe steps across every operation since creation — the
    operation-count budget @perf-smoke asserts on (wall-clock-free
    regression detection). *)

val check_invariants : 'a t -> (unit, string) result
