(** determinism: forbid ambient nondeterminism in the sources.

    Flags wall-clock reads, the unseeded global [Random] state, the
    polymorphic structural hash, hash-order [Hashtbl] and [*_hashtbl]
    traversals (unless immediately sorted or key-insensitive), and —
    inside the [lib/core/]/[lib/rbtree/] hot-path scope — polymorphic
    [=]/[<>] against variant constructors and the bare polymorphic
    [compare].
    Seeded replay (racecheck, faultcheck, the golden image) only works
    if no result depends on ambient state; see the implementation
    header for the exemption conventions. *)

val check : Source.file list -> Diag.t list
