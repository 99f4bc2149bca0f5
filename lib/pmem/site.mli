(** Durability-lint site labels: which layer and operation issued a PM
    access.

    Persistence diagnostics are only actionable when they name the code
    that forgot a flush or fence, not just a physical offset.  Every PM
    layer ({!Repro_journal}, the core file system, the allocator) wraps
    its device accesses in {!Device.with_site}; the sanitizer reads the
    ambient site when it records a violation. *)

type t

val v : string -> string -> t
(** [v layer op], e.g. [v "journal" "commit"]. *)

val unknown : t
(** The default site of unannotated accesses, rendered ["?.?"]. *)

val to_string : t -> string
(** ["layer.op"]. *)
