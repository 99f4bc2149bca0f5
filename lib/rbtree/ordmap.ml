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
  val remove : 'a t -> key -> unit
  val find : 'a t -> key -> 'a option
  val mem : 'a t -> key -> bool
  val max_binding : 'a t -> (key * 'a) option
  val find_first_geq : 'a t -> key -> (key * 'a) option
  val find_last_leq : 'a t -> key -> (key * 'a) option
  val iter : 'a t -> (key -> 'a -> unit) -> unit
  val fold : 'a t -> init:'b -> f:('b -> key -> 'a -> 'b) -> 'b
  val to_list : 'a t -> (key * 'a) list
end

module Make (Ord : ORDERED) : S with type key = Ord.t = struct
  module M = Map.Make (Ord)

  type key = Ord.t
  type 'a t = { mutable m : 'a M.t; mutable count : int }

  let create () = { m = M.empty; count = 0 }

  let clear t =
    t.m <- M.empty;
    t.count <- 0

  let size t = t.count

  (* One traversal that also tells a new key from a bound one: [M.update]
     calls its function exactly once, with the key's current binding. *)
  let insert t k v =
    t.m <-
      M.update k
        (function
          | None ->
              t.count <- t.count + 1;
              Some v
          | Some _ -> Some v)
        t.m

  (* [M.remove] returns its argument itself when the key is unbound. *)
  let remove t k =
    let m = M.remove k t.m in
    if m != t.m then begin
      t.m <- m;
      t.count <- t.count - 1
    end

  let find t k = M.find_opt k t.m
  let mem t k = M.mem k t.m
  let max_binding t = M.max_binding_opt t.m
  let find_first_geq t k = M.find_first_opt (fun k' -> Ord.compare k' k >= 0) t.m
  let find_last_leq t k = M.find_last_opt (fun k' -> Ord.compare k' k <= 0) t.m
  let iter t f = M.iter f t.m
  let fold t ~init ~f = M.fold (fun k v acc -> f acc k v) t.m init
  let to_list t = M.bindings t.m
end

module Int_map = Make (Int)
module String_map = Make (String)
