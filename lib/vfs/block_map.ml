module M = Repro_rbtree.Ordmap.Int_map

type ext = { phys : int; len : int }

type t = { map : ext M.t; mutable bytes : int }

let create () = { map = M.create (); bytes = 0 }

let clear t =
  M.clear t.map;
  t.bytes <- 0

let overlap_check t ~file_off ~len =
  (match M.find_last_leq t.map file_off with
  | Some (o, e) when o + e.len > file_off ->
      invalid_arg (Printf.sprintf "Block_map.insert: overlaps extent at %d" o)
  | _ -> ());
  match M.find_first_geq t.map (file_off + 1) with
  | Some (o, _) when file_off + len > o ->
      invalid_arg (Printf.sprintf "Block_map.insert: overlaps extent at %d" o)
  | _ -> ()

let insert t ~file_off ~phys ~len =
  if len <= 0 || file_off < 0 || phys < 0 then invalid_arg "Block_map.insert: bad extent";
  overlap_check t ~file_off ~len;
  t.bytes <- t.bytes + len;
  (* Coalesce with logically and physically adjacent neighbours (their
     bytes are already counted). *)
  let file_off, phys, len =
    match M.find_last_leq t.map file_off with
    | Some (o, e) when o + e.len = file_off && e.phys + e.len = phys ->
        M.remove t.map o;
        (o, e.phys, e.len + len)
    | _ -> (file_off, phys, len)
  in
  let len =
    match M.find_first_geq t.map (file_off + 1) with
    | Some (o, e) when file_off + len = o && phys + len = e.phys ->
        M.remove t.map o;
        len + e.len
    | _ -> len
  in
  M.insert t.map file_off { phys; len }

let lookup t ~file_off =
  match M.find_last_leq t.map file_off with
  | Some (o, e) when o + e.len > file_off -> Some (e.phys + (file_off - o), o + e.len - file_off)
  | _ -> None

let next_mapped t ~file_off =
  match lookup t ~file_off with
  | Some _ -> Some file_off
  | None -> (
      match M.find_first_geq t.map file_off with Some (o, _) -> Some o | None -> None)

let remove_range t ~file_off ~len =
  if len <= 0 then invalid_arg "Block_map.remove_range";
  let stop = file_off + len in
  let freed = ref [] in
  let rec walk () =
    (* Find any extent intersecting [file_off, stop). *)
    let hit =
      match M.find_last_leq t.map (stop - 1) with
      | Some (o, e) when o + e.len > file_off -> Some (o, e)
      | _ -> None
    in
    match hit with
    | None -> ()
    | Some (o, e) ->
        M.remove t.map o;
        t.bytes <- t.bytes - e.len;
        let cut_lo = max o file_off and cut_hi = min (o + e.len) stop in
        freed := (e.phys + (cut_lo - o), cut_hi - cut_lo) :: !freed;
        (* Keep the unremoved head and tail pieces. *)
        if o < cut_lo then begin
          M.insert t.map o { phys = e.phys; len = cut_lo - o };
          t.bytes <- t.bytes + (cut_lo - o)
        end;
        if o + e.len > cut_hi then begin
          M.insert t.map cut_hi { phys = e.phys + (cut_hi - o); len = o + e.len - cut_hi };
          t.bytes <- t.bytes + (o + e.len - cut_hi)
        end;
        walk ()
  in
  walk ();
  !freed

let covered t ~file_off ~len =
  let rec go off remaining =
    remaining <= 0
    ||
    match lookup t ~file_off:off with
    | Some (_, run) -> go (off + run) (remaining - run)
    | None -> false
  in
  go file_off len

let huge_candidate t ~chunk_off =
  let huge = Repro_util.Units.huge_page in
  if not (Repro_util.Units.is_aligned chunk_off huge) then None
  else
    match lookup t ~file_off:chunk_off with
    | Some (phys, run) when run >= huge && Repro_util.Units.is_aligned phys huge ->
        Some phys
    | _ -> None

let extents t =
  List.rev
    (M.fold t.map ~init:[] ~f:(fun acc o e -> (o, e.phys, e.len) :: acc))

let extent_count t = M.size t.map
let mapped_bytes t = t.bytes

let check_invariants t =
  let exception Bad of string in
  let prev_end = ref (-1) in
  let sum = ref 0 in
  try
    M.iter t.map (fun o e ->
        if e.len <= 0 then raise (Bad "non-positive extent");
        if o < !prev_end then raise (Bad "overlapping extents");
        prev_end := o + e.len;
        sum := !sum + e.len);
    if !sum <> t.bytes then raise (Bad "mapped_bytes mismatch");
    Ok ()
  with Bad m -> Error m
