(** Ordered maps behind a mutable, counted handle.

    WineFS (like the Linux kernel it reuses them from) keeps its DRAM
    metadata indexes — per-directory entry indexes, per-file extent
    records and key indexes — in red-black trees.  Their simulated cost is
    charged by the cost model (e.g. [Dir_index]'s log2 n per lookup), so
    the host structure only has to be a balanced ordered map: this is
    [Stdlib.Map] behind a handle that keeps the binding count, since
    [Map.cardinal] is O(n) and the inode header and the directory lookup
    charge read the size on every call. *)

module type ORDERED = sig
  type t

  val compare : t -> t -> int
end

module type S = sig
  type key
  type 'a t

  val create : unit -> 'a t
  val clear : 'a t -> unit
  val size : 'a t -> int

  val insert : 'a t -> key -> 'a -> unit
  (** Replaces the value when the key is already bound. *)

  val remove : 'a t -> key -> unit
  (** No-op when the key is unbound. *)

  val find : 'a t -> key -> 'a option
  val mem : 'a t -> key -> bool
  val max_binding : 'a t -> (key * 'a) option

  val find_first_geq : 'a t -> key -> (key * 'a) option
  (** Smallest binding with key >= the argument (kernel
      [rb_find_first]-style successor search). *)

  val find_last_leq : 'a t -> key -> (key * 'a) option
  (** Largest binding with key <= the argument (predecessor search). *)

  val iter : 'a t -> (key -> 'a -> unit) -> unit
  (** In ascending key order. *)

  val fold : 'a t -> init:'b -> f:('b -> key -> 'a -> 'b) -> 'b
  (** In ascending key order. *)

  val to_list : 'a t -> (key * 'a) list
end

module Make (Ord : ORDERED) : S with type key = Ord.t

module Int_map : S with type key = int
module String_map : S with type key = string
