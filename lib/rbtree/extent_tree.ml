(* Chunked sorted-run extent index (DESIGN §14).

   Two sorted runs replace the red-black trees of the original
   implementation (preserved as [Repro_oracle.Extent_tree_ref] under
   test/oracle for differential testing): one ordered by offset backs the neighbour queries
   (extent_at, coalescing, goal walks), and one ordered by
   (length, offset) backs best-fit and [largest].  Each run stores its
   (a, b) int pairs in fixed-capacity blocks of [blk_cap] entries behind
   a small block directory, so a mutation blits at most one block — a
   memmove the size of a couple of cache pages — plus a pointer shift
   over the ~n/64 directory.  Aged devices reach thousands of free
   extents, where a single flat array's O(n) element shifts dominated
   the allocation path; bounded blocks keep the cache-friendly layout
   without the superlinear churn cost.

   Control flow of every allocation strategy mirrors the reference
   implementation exactly — the golden image test demands bit-identical
   allocation sequences. *)

let huge = Repro_util.Units.huge_page

(* Aligned 2MB regions fully contained in one extent. *)
let aligned_in ~off ~len =
  let first = Repro_util.Units.round_up off huge in
  let last = Repro_util.Units.round_down (off + len) huge in
  max 0 ((last - first) / huge)

let blk_cap = 128
let blk_half = blk_cap / 2
let blk_quarter = blk_cap / 4

(* A sorted run of distinct (a, b) pairs in lexicographic order.  The
   offset run stores (off, len) — offsets are unique, so this is offset
   order — and the size run stores (len, off). *)
type run = {
  mutable ba : int array array; (* per-block primary fields *)
  mutable bb : int array array; (* per-block secondary fields *)
  mutable bc : int array; (* per-block live counts, always >= 1 *)
  mutable nb : int; (* blocks in use *)
  mutable rn : int; (* total entries across all blocks *)
}

let run_create () =
  { ba = Array.make 4 [||]; bb = Array.make 4 [||]; bc = Array.make 4 0; nb = 0; rn = 0 }

(* Cursors pack (block, slot); slots stay below [blk_cap], so packed
   values order exactly like positions and compare with plain (<). *)
let cur bi si = (bi lsl 16) lor si
let cur_bi c = c lsr 16
let cur_si c = c land 0xFFFF
let run_valid r c = cur_bi c < r.nb
let run_a r c = r.ba.(cur_bi c).(cur_si c)
let run_b r c = r.bb.(cur_bi c).(cur_si c)

(* Smallest cursor with (a, b) >= (ka, kb), or the end cursor. *)
let run_first_geq r ka kb =
  let lo = ref 0 and hi = ref r.nb in
  (* invariant: blocks [< lo] end before the key, blocks [>= hi] reach it *)
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let last = r.bc.(mid) - 1 in
    let la = r.ba.(mid).(last) in
    if la > ka || (la = ka && r.bb.(mid).(last) >= kb) then hi := mid else lo := mid + 1
  done;
  if !lo = r.nb then cur r.nb 0
  else begin
    let a = r.ba.(!lo) and b = r.bb.(!lo) in
    let slo = ref 0 and shi = ref r.bc.(!lo) in
    while !slo < !shi do
      let m = (!slo + !shi) / 2 in
      let va = Array.unsafe_get a m in
      if va > ka || (va = ka && Array.unsafe_get b m >= kb) then shi := m else slo := m + 1
    done;
    cur !lo !slo
  end

(* Smallest cursor with (a, b) > (ka, kb), or the end cursor. *)
let run_first_gt r ka kb =
  let lo = ref 0 and hi = ref r.nb in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let last = r.bc.(mid) - 1 in
    let la = r.ba.(mid).(last) in
    if la > ka || (la = ka && r.bb.(mid).(last) > kb) then hi := mid else lo := mid + 1
  done;
  if !lo = r.nb then cur r.nb 0
  else begin
    let a = r.ba.(!lo) and b = r.bb.(!lo) in
    let slo = ref 0 and shi = ref r.bc.(!lo) in
    while !slo < !shi do
      let m = (!slo + !shi) / 2 in
      let va = Array.unsafe_get a m in
      if va > ka || (va = ka && Array.unsafe_get b m > kb) then shi := m else slo := m + 1
    done;
    cur !lo !slo
  end

let run_prev r c =
  let bi = cur_bi c and si = cur_si c in
  if si > 0 then cur bi (si - 1)
  else if bi > 0 then cur (bi - 1) (r.bc.(bi - 1) - 1)
  else -1

(* Largest cursor with (a, b) <= (ka, kb), or -1. *)
let run_last_leq r ka kb = run_prev r (run_first_gt r ka kb)

let dir_grow r =
  if r.nb = Array.length r.bc then begin
    let nc = 2 * Array.length r.bc in
    let ea = Array.make nc [||] and eb = Array.make nc [||] and ec = Array.make nc 0 in
    Array.blit r.ba 0 ea 0 r.nb;
    Array.blit r.bb 0 eb 0 r.nb;
    Array.blit r.bc 0 ec 0 r.nb;
    r.ba <- ea;
    r.bb <- eb;
    r.bc <- ec
  end

(* Split the full block [bi]; entries [blk_half..] move to block bi+1. *)
let run_split r bi =
  dir_grow r;
  let a2 = Array.make blk_cap 0 and b2 = Array.make blk_cap 0 in
  Array.blit r.ba.(bi) blk_half a2 0 (blk_cap - blk_half);
  Array.blit r.bb.(bi) blk_half b2 0 (blk_cap - blk_half);
  Array.blit r.ba (bi + 1) r.ba (bi + 2) (r.nb - bi - 1);
  Array.blit r.bb (bi + 1) r.bb (bi + 2) (r.nb - bi - 1);
  Array.blit r.bc (bi + 1) r.bc (bi + 2) (r.nb - bi - 1);
  r.ba.(bi + 1) <- a2;
  r.bb.(bi + 1) <- b2;
  r.bc.(bi) <- blk_half;
  r.bc.(bi + 1) <- blk_cap - blk_half;
  r.nb <- r.nb + 1

let drop_block r bi =
  Array.blit r.ba (bi + 1) r.ba bi (r.nb - bi - 1);
  Array.blit r.bb (bi + 1) r.bb bi (r.nb - bi - 1);
  Array.blit r.bc (bi + 1) r.bc bi (r.nb - bi - 1);
  r.nb <- r.nb - 1;
  r.ba.(r.nb) <- [||];
  r.bb.(r.nb) <- [||];
  r.bc.(r.nb) <- 0

let run_insert r ka kb =
  if r.nb = 0 then begin
    r.ba.(0) <- Array.make blk_cap 0;
    r.bb.(0) <- Array.make blk_cap 0;
    r.ba.(0).(0) <- ka;
    r.bb.(0).(0) <- kb;
    r.bc.(0) <- 1;
    r.nb <- 1;
    r.rn <- 1
  end
  else begin
    let c = run_first_geq r ka kb in
    let bi, si =
      if cur_bi c = r.nb then (r.nb - 1, r.bc.(r.nb - 1)) else (cur_bi c, cur_si c)
    in
    let bi, si =
      if r.bc.(bi) < blk_cap then (bi, si)
      else begin
        run_split r bi;
        if si > blk_half then (bi + 1, si - blk_half) else (bi, si)
      end
    in
    let a = r.ba.(bi) and b = r.bb.(bi) and cnt = r.bc.(bi) in
    Array.blit a si a (si + 1) (cnt - si);
    Array.blit b si b (si + 1) (cnt - si);
    a.(si) <- ka;
    b.(si) <- kb;
    r.bc.(bi) <- cnt + 1;
    r.rn <- r.rn + 1
  end

(* Callers only ever remove entries previously inserted, so the lookup
   always lands on the exact pair. *)
let run_remove r ka kb =
  let c = run_first_geq r ka kb in
  let bi = cur_bi c and si = cur_si c in
  let a = r.ba.(bi) and b = r.bb.(bi) and cnt = r.bc.(bi) in
  Array.blit a (si + 1) a si (cnt - si - 1);
  Array.blit b (si + 1) b si (cnt - si - 1);
  r.bc.(bi) <- cnt - 1;
  r.rn <- r.rn - 1;
  if cnt = 1 then drop_block r bi
  else if
    (* Keep blocks from dwindling: fold a sparse block into its right
       neighbour when the union leaves slack against an immediate
       re-split. *)
    cnt - 1 < blk_quarter
    && bi + 1 < r.nb
    && cnt - 1 + r.bc.(bi + 1) <= blk_cap - blk_quarter
  then begin
    let nxt = r.bc.(bi + 1) in
    Array.blit r.ba.(bi + 1) 0 a (cnt - 1) nxt;
    Array.blit r.bb.(bi + 1) 0 b (cnt - 1) nxt;
    r.bc.(bi) <- cnt - 1 + nxt;
    drop_block r (bi + 1)
  end

(* First cursor at or after [c], before the exclusive bound [stop],
   whose entry satisfies [p a b]; -1 when none. *)
let run_scan r c stop p =
  let res = ref (-1) in
  let bi = ref (cur_bi c) and si = ref (cur_si c) in
  while !res < 0 && !bi < r.nb && cur !bi !si < stop do
    let a = r.ba.(!bi) and b = r.bb.(!bi) and cnt = r.bc.(!bi) in
    while !res < 0 && !si < cnt && cur !bi !si < stop do
      if p (Array.unsafe_get a !si) (Array.unsafe_get b !si) then res := cur !bi !si
      else incr si
    done;
    if !res < 0 then begin
      incr bi;
      si := 0
    end
  done;
  !res

type t = {
  by_off : run; (* (off, len) in offset order *)
  by_size : run; (* (len, off) in (length, offset) order *)
  mutable total : int;
  mutable aligned_2m : int; (* incremental Figure-3 census *)
}

let create () =
  { by_off = run_create (); by_size = run_create (); total = 0; aligned_2m = 0 }

(* Largest cursor with off <= x (lens are all below max_int), or -1. *)
let off_last_leq t x = run_last_leq t.by_off x max_int

(* Smallest cursor with off >= x, or the end cursor. *)
let off_first_geq t x = run_first_geq t.by_off x min_int

let add_extent t ~off ~len =
  run_insert t.by_off off len;
  run_insert t.by_size len off;
  t.total <- t.total + len;
  t.aligned_2m <- t.aligned_2m + aligned_in ~off ~len

let remove_extent t ~off ~len =
  run_remove t.by_off off len;
  run_remove t.by_size len off;
  t.total <- t.total - len;
  t.aligned_2m <- t.aligned_2m - aligned_in ~off ~len

let insert_free t ~off ~len =
  if len <= 0 then invalid_arg "Extent_tree.insert_free: non-positive length";
  if off < 0 then invalid_arg "Extent_tree.insert_free: negative offset";
  (* Overlap checks against both neighbours. *)
  let r = t.by_off in
  let p = off_last_leq t off in
  if p >= 0 && run_a r p + run_b r p > off then
    invalid_arg
      (Printf.sprintf "Extent_tree: double free, [%d,%d) overlaps [%d,%d)" off (off + len)
         (run_a r p)
         (run_a r p + run_b r p));
  let nx = off_first_geq t (off + 1) in
  if run_valid r nx && off + len > run_a r nx then
    invalid_arg
      (Printf.sprintf "Extent_tree: double free, [%d,%d) overlaps next extent at %d" off
         (off + len) (run_a r nx));
  (* Coalesce with the previous and next extents where adjacent. *)
  let off, len =
    if p >= 0 && run_a r p + run_b r p = off then begin
      let p_off = run_a r p and p_len = run_b r p in
      remove_extent t ~off:p_off ~len:p_len;
      (p_off, p_len + len)
    end
    else (off, len)
  in
  let len =
    let nx = off_first_geq t (off + 1) in
    if run_valid r nx && off + len = run_a r nx then begin
      let n_len = run_b r nx in
      remove_extent t ~off:(run_a r nx) ~len:n_len;
      len + n_len
    end
    else len
  in
  add_extent t ~off ~len

let take_front t ~ext_off ~ext_len ~len =
  remove_extent t ~off:ext_off ~len:ext_len;
  if ext_len > len then add_extent t ~off:(ext_off + len) ~len:(ext_len - len);
  ext_off

let alloc_first_fit t ~len =
  if len <= 0 then invalid_arg "Extent_tree.alloc_first_fit";
  let r = t.by_off in
  let c = run_scan r (cur 0 0) max_int (fun _ l -> l >= len) in
  if c < 0 then None
  else begin
    let ext_off = run_a r c and ext_len = run_b r c in
    Some (take_front t ~ext_off ~ext_len ~len)
  end

let alloc_best_fit t ~len =
  if len <= 0 then invalid_arg "Extent_tree.alloc_best_fit";
  let r = t.by_size in
  let c = run_first_geq r len 0 in
  if not (run_valid r c) then None
  else begin
    let ext_len = run_a r c and ext_off = run_b r c in
    Some (take_front t ~ext_off ~ext_len ~len)
  end

let alloc_near t ~goal ~len =
  if len <= 0 then invalid_arg "Extent_tree.alloc_near";
  let r = t.by_off in
  (* The extent containing or straddling the goal first. *)
  let straddle =
    let p = off_last_leq t goal in
    if p >= 0 && run_a r p + run_b r p > goal && run_b r p >= len then begin
      let off = run_a r p and l = run_b r p in
      let avail_after = off + l - goal in
      if avail_after >= len then begin
        (* Carve from the goal point. *)
        remove_extent t ~off ~len:l;
        if goal > off then add_extent t ~off ~len:(goal - off);
        if avail_after > len then add_extent t ~off:(goal + len) ~len:(avail_after - len);
        Some goal
      end
      else Some (take_front t ~ext_off:off ~ext_len:l ~len)
    end
    else None
  in
  match straddle with
  | Some _ as res -> res
  | None ->
      (* First fit at or after the goal, then wrap to the start. *)
      let fits _ l = l >= len in
      let take c =
        let ext_off = run_a r c and ext_len = run_b r c in
        Some (take_front t ~ext_off ~ext_len ~len)
      in
      let from_goal = off_first_geq t goal in
      let c = run_scan r from_goal max_int fits in
      if c >= 0 then take c
      else begin
        let c = run_scan r (cur 0 0) from_goal fits in
        if c >= 0 then take c else None
      end

let carve t off l start len =
  remove_extent t ~off ~len:l;
  if start > off then add_extent t ~off ~len:(start - off);
  let tail = off + l - (start + len) in
  if tail > 0 then add_extent t ~off:(start + len) ~len:tail;
  Some start

let alloc_aligned t ~len ~align =
  if len <= 0 || align <= 0 then invalid_arg "Extent_tree.alloc_aligned";
  let r = t.by_off in
  let fits off l =
    let start = Repro_util.Units.round_up off align in
    start + len <= off + l
  in
  let c = run_scan r (cur 0 0) max_int fits in
  if c < 0 then None
  else begin
    let off = run_a r c and l = run_b r c in
    carve t off l (Repro_util.Units.round_up off align) len
  end

let alloc_aligned_near t ~goal ~window ~len ~align =
  if len <= 0 || align <= 0 || window <= 0 then invalid_arg "Extent_tree.alloc_aligned_near";
  let r = t.by_off in
  let stop = goal + window in
  (* Extent straddling the goal, then extents after it, within the window. *)
  let try_extent off l =
    let start = Repro_util.Units.round_up (max off goal) align in
    if start + len <= off + l then Some (off, l, start) else None
  in
  let first =
    let p = off_last_leq t goal in
    if p >= 0 && run_a r p + run_b r p > goal then try_extent (run_a r p) (run_b r p)
    else None
  in
  let walk () =
    (* The walk ends at the first extent starting at or past the window. *)
    let bound = off_first_geq t stop in
    let c =
      run_scan r (off_first_geq t goal) bound (fun off l ->
          match try_extent off l with Some _ -> true | None -> false)
    in
    if c < 0 then None else try_extent (run_a r c) (run_b r c)
  in
  match (match first with Some res -> Some res | None -> walk ()) with
  | Some (off, l, start) -> carve t off l start len
  | None -> None

let alloc_exact t ~off ~len =
  if len <= 0 then invalid_arg "Extent_tree.alloc_exact";
  let r = t.by_off in
  let p = off_last_leq t off in
  if p >= 0 && off + len <= run_a r p + run_b r p then begin
    let e_off = run_a r p and e_len = run_b r p in
    remove_extent t ~off:e_off ~len:e_len;
    if off > e_off then add_extent t ~off:e_off ~len:(off - e_off);
    let tail = e_off + e_len - (off + len) in
    if tail > 0 then add_extent t ~off:(off + len) ~len:tail;
    true
  end
  else false

let extent_at t ~off =
  let r = t.by_off in
  let p = off_last_leq t off in
  if p >= 0 && off < run_a r p + run_b r p then Some (run_a r p, run_b r p) else None

let total_free t = t.total
let extent_count t = t.by_off.rn

let largest t =
  let r = t.by_size in
  if r.nb = 0 then 0 else r.ba.(r.nb - 1).(r.bc.(r.nb - 1) - 1)

let iter t f =
  let r = t.by_off in
  for bi = 0 to r.nb - 1 do
    let a = r.ba.(bi) and b = r.bb.(bi) in
    for si = 0 to r.bc.(bi) - 1 do
      f ~off:a.(si) ~len:b.(si)
    done
  done

let iter_range t ~off ~len f =
  let r = t.by_off in
  let p = off_last_leq t off in
  let c = ref (if p >= 0 then p else cur 0 0) in
  while run_valid r !c && run_a r !c < off + len do
    let e_off = run_a r !c and e_len = run_b r !c in
    if e_off + e_len > off then f ~off:e_off ~len:e_len;
    let bi = cur_bi !c and si = cur_si !c in
    c := if si + 1 < r.bc.(bi) then cur bi (si + 1) else cur (bi + 1) 0
  done

let to_list t =
  let acc = ref [] in
  iter t (fun ~off ~len -> acc := (off, len) :: !acc);
  List.rev !acc

let aligned_region_count t ~align =
  if align <= 0 then invalid_arg "Extent_tree.aligned_region_count";
  if align = huge then t.aligned_2m
  else begin
    let acc = ref 0 in
    iter t (fun ~off ~len ->
        let first = Repro_util.Units.round_up off align in
        let last = Repro_util.Units.round_down (off + len) align in
        acc := !acc + max 0 ((last - first) / align));
    !acc
  end

let check_invariants t =
  let exception Bad of string in
  try
    let check_run r name =
      if r.nb < 0 || r.nb > Array.length r.bc then raise (Bad (name ^ ": directory overflow"));
      if Array.length r.ba <> Array.length r.bc || Array.length r.bb <> Array.length r.bc
      then raise (Bad (name ^ ": directory capacity mismatch"));
      let sum = ref 0 in
      for bi = 0 to r.nb - 1 do
        let c = r.bc.(bi) in
        if c < 1 || c > blk_cap then raise (Bad (name ^ ": block count out of range"));
        if Array.length r.ba.(bi) <> blk_cap || Array.length r.bb.(bi) <> blk_cap then
          raise (Bad (name ^ ": block capacity mismatch"));
        sum := !sum + c
      done;
      if !sum <> r.rn then raise (Bad (name ^ ": entry count mismatch"))
    in
    check_run t.by_off "offset run";
    check_run t.by_size "size run";
    if t.by_off.rn <> t.by_size.rn then raise (Bad "run cardinality mismatch");
    let prev_end = ref (-1) in
    let sum = ref 0 and aligned = ref 0 in
    iter t (fun ~off ~len ->
        if len <= 0 then raise (Bad "non-positive extent length");
        if off < !prev_end then raise (Bad "overlapping extents");
        if off = !prev_end then raise (Bad "uncoalesced adjacent extents");
        prev_end := off + len;
        sum := !sum + len;
        aligned := !aligned + aligned_in ~off ~len;
        (* The size run must hold exactly this extent at its search slot. *)
        let c = run_first_geq t.by_size len off in
        if (not (run_valid t.by_size c)) || run_a t.by_size c <> len || run_b t.by_size c <> off
        then raise (Bad "size index missing entry"));
    let s = t.by_size in
    let prev_l = ref (-1) and prev_o = ref (-1) in
    for bi = 0 to s.nb - 1 do
      for si = 0 to s.bc.(bi) - 1 do
        let l = s.ba.(bi).(si) and o = s.bb.(bi).(si) in
        if l < !prev_l || (l = !prev_l && o <= !prev_o) then raise (Bad "size run out of order");
        prev_l := l;
        prev_o := o
      done
    done;
    if !sum <> t.total then raise (Bad "total mismatch");
    if !aligned <> t.aligned_2m then raise (Bad "aligned census mismatch");
    Ok ()
  with Bad m -> Error m
