(* Growable flat int array: the unboxed accumulator the substrate uses
   where a list or Queue would box every element.  Doubling growth,
   amortised O(1) push, O(1) random access, in-place truncation — the
   dirty-line list in the PM device and scratch run-lists in the flat
   extent index are Flat_vecs. *)

type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 16) () = { data = Array.make (max 1 capacity) 0; len = 0 }

let length t = t.len

let push t v =
  let cap = Array.length t.data in
  if t.len = cap then begin
    let bigger = Array.make (cap * 2) 0 in
    Array.blit t.data 0 bigger 0 cap;
    t.data <- bigger
  end;
  Array.unsafe_set t.data t.len v;
  t.len <- t.len + 1

let append t src ~len =
  if len < 0 || len > Array.length src then invalid_arg "Flat_vec.append";
  let need = t.len + len in
  let cap = Array.length t.data in
  if need > cap then begin
    let bigger = Array.make (max need (cap * 2)) 0 in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  (* A loop, not [Array.blit]: the runtime's blit cannot know the
     elements are ints, and into an array in the major heap it goes
     through the write barrier per element. *)
  let data = t.data and base = t.len in
  for i = 0 to len - 1 do
    Array.unsafe_set data (base + i) (Array.unsafe_get src i)
  done;
  t.len <- need

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Flat_vec.get";
  Array.unsafe_get t.data i

let set t i v =
  if i < 0 || i >= t.len then invalid_arg "Flat_vec.set";
  Array.unsafe_set t.data i v

let clear t = t.len <- 0

let iter t f =
  for i = 0 to t.len - 1 do
    f (Array.unsafe_get t.data i)
  done

let to_list t = List.init t.len (fun i -> t.data.(i))

let sort t =
  let a = Array.sub t.data 0 t.len in
  Array.sort Int.compare a;
  Array.blit a 0 t.data 0 t.len
