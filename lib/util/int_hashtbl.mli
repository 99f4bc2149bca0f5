(** Hash tables keyed by [int], laid out exactly as the generic
    [Hashtbl] lays out the same keys.

    {!hash} computes in OCaml what the runtime's polymorphic hash gives
    for an immediate integer (MurmurHash3 over the tagged word, then its
    final mix, folded to 30 bits).  With the same initial size, a table
    of this module puts every key in the same bucket, in the same order,
    as a generic [(int, _) Hashtbl.t] filled by the same calls, so
    [iter] and [fold] visit bindings in the same order — without the
    generic table's polymorphic hash and compare on every lookup. *)

val hash : int -> int
(** Equal to [Hashtbl.hash] on every [int] (pinned by a test). *)

include Hashtbl.S with type key = int
