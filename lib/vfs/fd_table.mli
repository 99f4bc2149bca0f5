(** Open-file-descriptor table (one per mounted file system). *)

type entry = { ino : int; flags : Types.open_flags; mutable pos : int }

type t

val create : unit -> t

val alloc : t -> ino:int -> flags:Types.open_flags -> int
(** Returns a fresh descriptor. *)

val get : t -> int -> entry
(** Raises {!Types.Error} [EBADF] on an unknown or closed descriptor. *)

val close : t -> int -> unit

val is_open_ino : t -> int -> bool
(** Any live descriptor referencing this inode? *)
