(** Growable flat int array (unboxed; doubling growth).

    Used where a [Queue.t] or [int list] would box per element on a hot
    path: the device's flushed-line list, scratch run accumulators. *)

type t

val create : ?capacity:int -> unit -> t
val length : t -> int
val push : t -> int -> unit
val append : t -> int array -> len:int -> unit
(** [append t src ~len] pushes [src.(0)] to [src.(len - 1)] in order, with
    one capacity check. *)

val get : t -> int -> int
val set : t -> int -> int -> unit
val clear : t -> unit
(** O(1): resets the length, keeping capacity. *)

val iter : t -> (int -> unit) -> unit
val to_list : t -> int list

val sort : t -> unit
(** In-place ascending sort of the live prefix. *)
