module Ordmap = Repro_rbtree.Ordmap
module By_off = Ordmap.Int_map

module By_size = Ordmap.Make (struct
  type t = int * int (* length, offset *)

  let compare (l1, o1) (l2, o2) =
    match Int.compare l1 l2 with 0 -> Int.compare o1 o2 | c -> c
end)

type t = {
  by_off : int By_off.t; (* offset -> length *)
  by_size : unit By_size.t; (* (length, offset) set *)
  mutable total : int;
  mutable aligned_2m : int; (* incremental Figure-3 census *)
}

let huge = Repro_util.Units.huge_page

(* Aligned 2MB regions fully contained in one extent. *)
let aligned_in ~off ~len =
  let first = Repro_util.Units.round_up off huge in
  let last = Repro_util.Units.round_down (off + len) huge in
  max 0 ((last - first) / huge)

let create () =
  { by_off = By_off.create (); by_size = By_size.create (); total = 0; aligned_2m = 0 }

let add_extent t ~off ~len =
  By_off.insert t.by_off off len;
  By_size.insert t.by_size (len, off) ();
  t.total <- t.total + len;
  t.aligned_2m <- t.aligned_2m + aligned_in ~off ~len

let remove_extent t ~off ~len =
  By_off.remove t.by_off off;
  By_size.remove t.by_size (len, off);
  t.total <- t.total - len;
  t.aligned_2m <- t.aligned_2m - aligned_in ~off ~len

let insert_free t ~off ~len =
  if len <= 0 then invalid_arg "Extent_tree.insert_free: non-positive length";
  if off < 0 then invalid_arg "Extent_tree.insert_free: negative offset";
  (* Overlap checks against both neighbours. *)
  (match By_off.find_last_leq t.by_off off with
  | Some (p_off, p_len) when p_off + p_len > off ->
      invalid_arg
        (Printf.sprintf "Extent_tree: double free, [%d,%d) overlaps [%d,%d)" off
           (off + len) p_off (p_off + p_len))
  | _ -> ());
  (match By_off.find_first_geq t.by_off (off + 1) with
  | Some (n_off, _) when off + len > n_off ->
      invalid_arg
        (Printf.sprintf "Extent_tree: double free, [%d,%d) overlaps next extent at %d"
           off (off + len) n_off)
  | _ -> ());
  (* Coalesce with the previous and next extents where adjacent. *)
  let off, len =
    match By_off.find_last_leq t.by_off off with
    | Some (p_off, p_len) when p_off + p_len = off ->
        remove_extent t ~off:p_off ~len:p_len;
        (p_off, p_len + len)
    | _ -> (off, len)
  in
  let len =
    match By_off.find_first_geq t.by_off (off + 1) with
    | Some (n_off, n_len) when off + len = n_off ->
        remove_extent t ~off:n_off ~len:n_len;
        len + n_len
    | _ -> len
  in
  add_extent t ~off ~len

let take_front t ~ext_off ~ext_len ~len =
  remove_extent t ~off:ext_off ~len:ext_len;
  if ext_len > len then add_extent t ~off:(ext_off + len) ~len:(ext_len - len);
  ext_off

let alloc_first_fit t ~len =
  if len <= 0 then invalid_arg "Extent_tree.alloc_first_fit";
  let exception Found of int * int in
  match
    By_off.iter t.by_off (fun off l -> if l >= len then raise_notrace (Found (off, l)))
  with
  | () -> None
  | exception Found (off, l) -> Some (take_front t ~ext_off:off ~ext_len:l ~len)

let alloc_best_fit t ~len =
  if len <= 0 then invalid_arg "Extent_tree.alloc_best_fit";
  match By_size.find_first_geq t.by_size (len, 0) with
  | None -> None
  | Some ((l, off), ()) -> Some (take_front t ~ext_off:off ~ext_len:l ~len)

let alloc_near t ~goal ~len =
  if len <= 0 then invalid_arg "Extent_tree.alloc_near";
  (* The extent containing or straddling the goal first. *)
  let try_at off l =
    if l >= len then Some (take_front t ~ext_off:off ~ext_len:l ~len) else None
  in
  let found = ref None in
  let exception Found in
  (try
     (* Walk extents starting at or after goal (plus the one straddling it). *)
     (match By_off.find_last_leq t.by_off goal with
     | Some (off, l) when off + l > goal && l >= len -> (
         (* Straddling extent: carve from the goal point if it fits, else front. *)
         let avail_after = off + l - goal in
         if avail_after >= len then begin
           remove_extent t ~off ~len:l;
           if goal > off then add_extent t ~off ~len:(goal - off);
           if avail_after > len then add_extent t ~off:(goal + len) ~len:(avail_after - len);
           found := Some goal;
           raise_notrace Found
         end
         else
           match try_at off l with
           | Some o ->
               found := Some o;
               raise_notrace Found
           | None -> ())
     | _ -> ());
     let rec walk key =
       match By_off.find_first_geq t.by_off key with
       | None -> ()
       | Some (off, l) -> (
           match try_at off l with
           | Some o ->
               found := Some o;
               raise_notrace Found
           | None -> walk (off + 1))
     in
     walk goal;
     walk 0 (* wrap around *)
   with Found -> ());
  !found

let alloc_aligned t ~len ~align =
  if len <= 0 || align <= 0 then invalid_arg "Extent_tree.alloc_aligned";
  let exception Found of int * int * int in
  match
    By_off.iter t.by_off (fun off l ->
        let start = Repro_util.Units.round_up off align in
        if start + len <= off + l then raise_notrace (Found (off, l, start)))
  with
  | () -> None
  | exception Found (off, l, start) ->
      remove_extent t ~off ~len:l;
      if start > off then add_extent t ~off ~len:(start - off);
      let tail = off + l - (start + len) in
      if tail > 0 then add_extent t ~off:(start + len) ~len:tail;
      Some start

let alloc_aligned_near t ~goal ~window ~len ~align =
  if len <= 0 || align <= 0 || window <= 0 then invalid_arg "Extent_tree.alloc_aligned_near";
  let stop = goal + window in
  let carve off l start =
    remove_extent t ~off ~len:l;
    if start > off then add_extent t ~off ~len:(start - off);
    let tail = off + l - (start + len) in
    if tail > 0 then add_extent t ~off:(start + len) ~len:tail;
    Some start
  in
  (* Extent straddling the goal, then extents after it, within the window. *)
  let try_extent off l =
    let start = Repro_util.Units.round_up (max off goal) align in
    if start + len <= off + l then Some (off, l, start) else None
  in
  let first =
    match By_off.find_last_leq t.by_off goal with
    | Some (off, l) when off + l > goal -> try_extent off l
    | _ -> None
  in
  let rec walk key =
    if key >= stop then None
    else
      match By_off.find_first_geq t.by_off key with
      | Some (off, l) when off < stop -> (
          match try_extent off l with Some r -> Some r | None -> walk (off + 1))
      | _ -> None
  in
  match (match first with Some r -> Some r | None -> walk goal) with
  | Some (off, l, start) -> carve off l start
  | None -> None

let alloc_exact t ~off ~len =
  if len <= 0 then invalid_arg "Extent_tree.alloc_exact";
  match By_off.find_last_leq t.by_off off with
  | Some (e_off, e_len) when e_off <= off && off + len <= e_off + e_len ->
      remove_extent t ~off:e_off ~len:e_len;
      if off > e_off then add_extent t ~off:e_off ~len:(off - e_off);
      let tail = e_off + e_len - (off + len) in
      if tail > 0 then add_extent t ~off:(off + len) ~len:tail;
      true
  | _ -> false

let extent_at t ~off =
  match By_off.find_last_leq t.by_off off with
  | Some (e_off, e_len) when e_off <= off && off < e_off + e_len -> Some (e_off, e_len)
  | _ -> None

let contains t ~off ~len =
  match By_off.find_last_leq t.by_off off with
  | Some (e_off, e_len) -> e_off <= off && off + len <= e_off + e_len
  | None -> false

let total_free t = t.total
let extent_count t = By_off.size t.by_off

let largest t =
  match By_size.max_binding t.by_size with Some ((l, _), ()) -> l | None -> 0

let iter t f = By_off.iter t.by_off (fun off len -> f ~off ~len)

let to_list t = By_off.to_list t.by_off

let aligned_region_count t ~align =
  if align <= 0 then invalid_arg "Extent_tree.aligned_region_count";
  if align = huge then t.aligned_2m
  else
    By_off.fold t.by_off ~init:0 ~f:(fun acc off len ->
        let first = Repro_util.Units.round_up off align in
        let last = Repro_util.Units.round_down (off + len) align in
        acc + max 0 ((last - first) / align))

let check_invariants t =
  (* Extents disjoint, non-adjacent (fully coalesced), totals agree, and
     the two indexes are consistent. *)
  let exception Bad of string in
  let prev_end = ref (-1) in
  let sum = ref 0 in
  try
    By_off.iter t.by_off (fun off len ->
        if len <= 0 then raise (Bad "non-positive extent length");
        if off < !prev_end then raise (Bad "overlapping extents");
        if off = !prev_end then raise (Bad "uncoalesced adjacent extents");
        if not (By_size.mem t.by_size (len, off)) then raise (Bad "size index missing entry");
        prev_end := off + len;
        sum := !sum + len);
    if !sum <> t.total then raise (Bad "total mismatch");
    let want_aligned =
      By_off.fold t.by_off ~init:0 ~f:(fun acc off len -> acc + aligned_in ~off ~len)
    in
    if want_aligned <> t.aligned_2m then raise (Bad "aligned census mismatch");
    if By_size.size t.by_size <> By_off.size t.by_off then raise (Bad "index size mismatch");
    Ok ()
  with Bad m -> Error m
