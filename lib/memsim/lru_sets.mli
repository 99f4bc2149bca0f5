(** Set-associative LRU directory over integer keys.

    Building block for the TLB and last-level-cache models: a fixed number
    of sets, each holding [ways] keys in least-recently-used order. *)

type t

val create : sets:int -> ways:int -> t
(** [sets] must be a power of two. *)

val access : t -> int -> bool
(** [access t key] returns [true] on hit.  Either way the key becomes
    MRU (slot 0 of its set) and the entries that were more recent shift
    down one slot.  The rule is positional: on a miss the key is
    inserted and the entry in the set's {e last} slot is evicted, even
    when a hole left by {!invalidate} sits in an earlier slot (the hole
    just shifts down with the rest).  Allocation-free. *)

val probe : t -> int -> bool
(** Hit test without insertion or LRU update. *)

val invalidate : t -> int -> unit
(** Empty every slot holding the key, leaving a hole in place; the
    other entries keep their positions. *)

val clear : t -> unit
(** Empty every slot of every set. *)
