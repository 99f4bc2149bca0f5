(** Growable flat int array (unboxed; doubling growth).

    Used where a [Queue.t] or [int list] would box per element on a hot
    path: the device's flushed-line list, scratch run accumulators. *)

type t

val create : ?capacity:int -> unit -> t
val length : t -> int
val push : t -> int -> unit
val get : t -> int -> int
val set : t -> int -> int -> unit
val clear : t -> unit
(** O(1): resets the length, keeping capacity. *)

val truncate : t -> int -> unit
(** [truncate t n] drops every element from index [n] on; [n] must be in
    [0, length t]. *)

val iter : t -> (int -> unit) -> unit
val fold : t -> init:'a -> f:('a -> int -> 'a) -> 'a
val to_list : t -> int list

val sort : t -> unit
(** In-place ascending sort of the live prefix. *)
