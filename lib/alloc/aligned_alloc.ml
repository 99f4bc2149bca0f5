open Repro_util
module Extent_tree = Repro_rbtree.Extent_tree
module Sched = Repro_sched.Sched
module Stats = Repro_stats.Stats

type extent = { off : int; len : int }

let huge = Units.huge_page

let zero_site = Repro_pmem.Site.v "alloc" "zero"

let zero_extents dev cpu exts =
  let module Device = Repro_pmem.Device in
  Device.with_site dev zero_site (fun () ->
      List.iter
        (fun e ->
          if e.len > 0 then begin
            Device.annotate dev (Fresh { addr = e.off; len = e.len });
            Device.memset_nt dev cpu ~off:e.off ~len:e.len '\000'
          end)
        exts;
      Device.fence dev cpu)

type pool = {
  stripe_off : int;
  aligned : int Queue.t; (* bases of free 2MB aligned extents *)
  aligned_set : unit Flat_table.t; (* mirror of [aligned] for O(1) overlap checks *)
  holes : Extent_tree.t;
}

(* Race-detector annotation for one pool's free structures (aligned FIFO
   + hole tree).  Pools are per-CPU; stealing crosses pools deliberately,
   so in the concurrent file system all pool mutation must happen under
   a lock the detector can see.  Aggregate queries ([free_bytes],
   [richest_aligned], the gather scan) stay unannotated: racy-by-design
   heuristics whose staleness costs a retry, not corruption. *)
let note p ~write ~site =
  if Sched.monitored () then
    Sched.access ~obj:(Printf.sprintf "alloc.aligned[%#x]" p.stripe_off) ~write ~site

(* Every mutation of the aligned FIFO goes through these two, keeping the
   membership set in sync with the queue. *)
let aligned_push pool base =
  note pool ~write:true ~site:"aligned_alloc.push";
  Queue.add base pool.aligned;
  Flat_table.set pool.aligned_set base ()

let aligned_pop pool =
  note pool ~write:true ~site:"aligned_alloc.pop";
  match Queue.take_opt pool.aligned with
  | None -> None
  | Some base ->
      Flat_table.remove pool.aligned_set base;
      Some base

type t = { regions : (int * int) array; pools : pool array }

(* The index of the region at or after [i] holding [off], or -1. *)
let rec region_index regions off i =
  if i >= Array.length regions then -1
  else
    let roff, rlen = regions.(i) in
    if off >= roff && off < roff + rlen then i else region_index regions off (i + 1)

let region_of regions off = match region_index regions off 0 with -1 -> None | i -> Some i

let cpu_of_offset t off =
  match region_of t.regions off with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Aligned_alloc: offset %d outside data area" off)

let free_bytes t =
  Array.fold_left
    (fun acc p -> acc + (Queue.length p.aligned * huge) + Extent_tree.total_free p.holes)
    0 t.pools

let free_aligned_extents t =
  Array.fold_left (fun acc p -> acc + Queue.length p.aligned) 0 t.pools

let hole_bytes t =
  Array.fold_left (fun acc p -> acc + Extent_tree.total_free p.holes) 0 t.pools

let publish_gauges t =
  if Stats.enabled () then begin
    Stats.gauge_set "alloc.free_aligned_extents" (free_aligned_extents t);
    Stats.gauge_set "alloc.hole_bytes" (hole_bytes t);
    Stats.gauge_set "alloc.free_bytes" (free_bytes t)
  end

(* Promote any fully-covered aligned 2MB regions of the hole containing
   [off] into the aligned pool. *)
let promote pool ~off =
  match Extent_tree.extent_at pool.holes ~off with
  | None -> ()
  | Some (e_off, e_len) ->
      let first = Units.round_up e_off huge in
      let last = Units.round_down (e_off + e_len) huge in
      let base = ref first in
      while !base < last do
        if Extent_tree.alloc_exact pool.holes ~off:!base ~len:huge then begin
          aligned_push pool !base;
          Stats.count "alloc.promotes" 1
        end;
        base := !base + huge
      done

let free t ~off ~len =
  if len <= 0 then invalid_arg "Aligned_alloc.free: non-positive length";
  let pool = t.pools.(cpu_of_offset t off) in
  note pool ~write:true ~site:"aligned_alloc.free";
  (* [Extent_tree.insert_free] rejects overlap with free holes, but a range
     overlapping a promoted 2MB base parked in the aligned FIFO is invisible
     to the tree — that double free would hand the same extent out twice. *)
  let base = ref (Units.round_down off huge) in
  while !base < off + len do
    if Flat_table.mem pool.aligned_set !base then
      invalid_arg
        (Printf.sprintf
           "Aligned_alloc.free: double free — [%d,%d) overlaps free aligned extent [%d,%d)" off
           (off + len) !base (!base + huge));
    base := !base + huge
  done;
  Extent_tree.insert_free pool.holes ~off ~len;
  promote pool ~off;
  publish_gauges t

let restore ~cpus ~regions ~free:free_list =
  if cpus <= 0 || Array.length regions <> cpus then
    invalid_arg "Aligned_alloc.restore: bad region count";
  let pools =
    Array.map
      (fun (off, _) ->
        {
          stripe_off = off;
          aligned = Queue.create ();
          aligned_set = Flat_table.create ~capacity:64 ~dummy:() ();
          holes = Extent_tree.create ();
        })
      regions
  in
  let t = { regions; pools } in
  List.iter (fun (off, len) -> free t ~off ~len) free_list;
  t

let create ~cpus ~regions =
  restore ~cpus ~regions ~free:(Array.to_list regions)

let aligned_region_count t =
  Array.fold_left
    (fun acc p ->
      acc + Queue.length p.aligned + Extent_tree.aligned_region_count p.holes ~align:huge)
    0 t.pools

let hole_stats t ~cpu =
  let p = t.pools.(cpu) in
  (Extent_tree.total_free p.holes, Extent_tree.extent_count p.holes)

(* CPU with the most free aligned extents (paper's stealing policy for
   large requests); None when all are empty. *)
let richest_aligned t =
  let best = ref (-1) and best_count = ref 0 in
  Array.iteri
    (fun i p ->
      let c = Queue.length p.aligned in
      if c > !best_count then begin
        best := i;
        best_count := c
      end)
    t.pools;
  if !best < 0 then None else Some !best

let _richest_holes t =
  let best = ref (-1) and best_bytes = ref 0 in
  Array.iteri
    (fun i p ->
      let b = Extent_tree.total_free p.holes in
      if b > !best_bytes then begin
        best := i;
        best_bytes := b
      end)
    t.pools;
  if !best < 0 then None else Some !best

let take_aligned t ~cpu =
  let local = t.pools.(cpu) in
  match aligned_pop local with
  | Some off -> Some off
  | None -> (
      match richest_aligned t with
      | Some rich -> (
          match aligned_pop t.pools.(rich) with
          | Some off ->
              Stats.count "alloc.steals" 1;
              Some off
          | None -> None)
      | None -> None)

(* Serve [len] < 2MB from hole pools: local first-fit, else break a local
   aligned extent into the hole pool (§3.4), else steal from the CPU with
   the most free hole bytes, else break a remote aligned extent, else
   gather fragments anywhere.  Fails only when free space is truly gone. *)
let hole_take t ~cpu ~len acc =
  let local = t.pools.(cpu) in
  let carve base =
    (* Use the front of a broken aligned extent; the tail becomes a hole
       in its origin pool. *)
    Stats.count "alloc.breaks" 1;
    if len < huge then free t ~off:(base + len) ~len:(huge - len);
    Some ({ off = base; len } :: acc)
  in
  note local ~write:true ~site:"aligned_alloc.hole";
  match Extent_tree.alloc_first_fit local.holes ~len with
  | Some off -> Some ({ off; len } :: acc)
  | None -> (
      (* Any hole pool anywhere before breaking an aligned extent: breaking
         is what dissolves hugepages, so it is the last resort ("the design
         must seek to preserve hugepages wherever possible", §3.1). *)
      let stolen =
        let n = Array.length t.pools in
        let rec scan i =
          if i >= n then None
          else if i = cpu then scan (i + 1)
          else begin
            note t.pools.(i) ~write:true ~site:"aligned_alloc.steal";
            match Extent_tree.alloc_first_fit t.pools.(i).holes ~len with
            | Some off -> Some off
            | None -> scan (i + 1)
          end
        in
        scan 0
      in
      match stolen with
      | Some off ->
          Stats.count "alloc.steals" 1;
          Some ({ off; len } :: acc)
      | None -> (
          match aligned_pop local with
          | Some base -> carve base
          | None -> (
              (* Break a remote aligned extent. *)
              match richest_aligned t with
              | Some rich -> (
                  match aligned_pop t.pools.(rich) with
                  | Some base ->
                      Stats.count "alloc.steals" 1;
                      carve base
                  | None -> None)
              | _ ->
                  (* Fragment-gathering fallback: consume the largest free
                     extents anywhere until the request is covered. *)
                  let rec gather need acc =
                    if need = 0 then Some acc
                    else
                      let best = ref None in
                      Array.iter
                        (fun p ->
                          let l = Extent_tree.largest p.holes in
                          match !best with
                          | Some (_, bl) when bl >= l -> ()
                          | _ -> if l > 0 then best := Some (p, l))
                        t.pools;
                      match !best with
                      | None -> None
                      | Some (p, l) ->
                          let take = min need l in
                          note p ~write:true ~site:"aligned_alloc.gather";
                          (match Extent_tree.alloc_best_fit p.holes ~len:take with
                          | Some off -> gather (need - take) ({ off; len = take } :: acc)
                          | None -> None)
                  in
                  gather len acc)))

let alloc_hugepage t ~cpu =
  let r = take_aligned t ~cpu in
  if r <> None then publish_gauges t;
  r

let undo t exts = List.iter (fun e -> free t ~off:e.off ~len:e.len) exts

let alloc ?contig_after t ~cpu ~len ~prefer_aligned =
  if len <= 0 then invalid_arg "Aligned_alloc.alloc: non-positive length";
  if free_bytes t < len then None
  else begin
    (* Contiguous-growth fast path for alignment-preserving files: extend
       exactly after the file's previous extent when that space is free,
       so small sequential writes fill one aligned extent instead of
       nibbling the front of many (§3.6 xattr behaviour). *)
    let contig =
      match contig_after with
      | Some g when len < huge -> (
          match cpu_of_offset t g with
          | c
            when (note t.pools.(c) ~write:true ~site:"aligned_alloc.contig";
                  Extent_tree.alloc_exact t.pools.(c).holes ~off:g ~len) -> Some g
          | _ -> None
          | exception Invalid_argument _ -> None)
      | _ -> None
    in
    let result =
      match contig with
      | Some off -> Some [ { off; len } ]
      | None ->
      (* Split into hugepage-sized chunks plus a small remainder (§3.4). *)
      let rec take_chunks remaining acc =
        if remaining >= huge then
          match take_aligned t ~cpu with
          | Some off -> take_chunks (remaining - huge) ({ off; len = huge } :: acc)
          | None -> (
              (* Aligned pools dry: serve the rest from holes. *)
              match hole_big remaining acc with Some acc -> Some (0, acc) | None -> None)
        else Some (remaining, acc)
      and hole_big remaining acc =
        (* Serve >= 2MB leftovers from holes in sub-2MB pieces. *)
        if remaining = 0 then Some acc
        else
          let piece = min remaining (huge - Units.base_page) in
          match hole_take t ~cpu ~len:piece acc with
          | Some acc -> hole_big (remaining - piece) acc
          | None -> None
      in
      match take_chunks len [] with
      | None -> None
      | Some (0, acc) -> Some (List.rev acc)
      | Some (remainder, acc) ->
          let small =
            if prefer_aligned then
              match take_aligned t ~cpu with
              | Some base ->
                  (* Use the front of a fresh aligned extent; the tail goes
                     back to the hole pool (xattr-aligned files, §3.6). *)
                  if huge - remainder > 0 then
                    free t ~off:(base + remainder) ~len:(huge - remainder);
                  Some ({ off = base; len = remainder } :: acc)
              | None -> hole_take t ~cpu ~len:remainder acc
            else hole_take t ~cpu ~len:remainder acc
          in
          (match small with
          | Some acc -> Some (List.rev acc)
          | None ->
              undo t acc;
              None)
    in
    if result <> None then publish_gauges t;
    result
  end

(* Mount's free-list recompute from the used-extent set: take the used
   extents in ascending offset order (equal offsets in their given
   order, so the first overlap reported never depends on how they were
   sorted), then each region's complement in the same linear sweep.
   Every region keeps its own cursor and its own gap list, so free space
   never coalesces across stripe boundaries — restoring such a merged
   extent could place it in the wrong pool.  In sorted order an overlap
   is an extent that starts before its region's cursor.

   The mount hands the extents over in its scan order, strictly
   increasing on an image whose files were written in table order, so
   that order is walked as it is; any other is stable-sorted by offset,
   as positions in an int array. *)
type used = { ext : int array; n : int }

let free_lists_of_used ~regions ~used:{ ext; n = m } =
  let n = Array.length regions in
  let cursor = Array.map fst regions in
  let gaps = Array.make n [] in
  let ascending = ref true in
  for j = 1 to m - 1 do
    if ext.(2 * j) <= ext.(2 * (j - 1)) then ascending := false
  done;
  let order =
    if !ascending then [||]
    else begin
      let o = Array.init m Fun.id in
      Array.stable_sort (fun a b -> Int.compare ext.(2 * a) ext.(2 * b)) o;
      o
    end
  in
  (* The sweep stops at the first refused extent, [k] in sorted order and
     [j] in the given one, with [why] set. *)
  let why = ref "" and k = ref 0 and j = ref 0 and refused = ref false in
  let refuse r =
    why := r;
    refused := true
  in
  while (not !refused) && !k < m do
    j := (if !ascending then !k else order.(!k));
    let off = ext.(2 * !j) and len = ext.((2 * !j) + 1) in
    let i = if len <= 0 then -1 else region_index regions off 0 in
    if len <= 0 then refuse ": non-positive length"
    else if i < 0 then refuse " outside every region"
    else begin
      let roff, rlen = regions.(i) in
      if off + len > roff + rlen then refuse " crosses region boundary"
      else if off < cursor.(i) then refuse " double-used"
      else begin
        if off > cursor.(i) then gaps.(i) <- (cursor.(i), off - cursor.(i)) :: gaps.(i);
        cursor.(i) <- off + len;
        incr k
      end
    end
  done;
  if !refused then begin
    let off = ext.(2 * !j) and len = ext.((2 * !j) + 1) in
    Error (Printf.sprintf "extent [%d,%d)%s" off (off + len) !why)
  end
  else begin
    let free = ref [] in
    for i = n - 1 downto 0 do
      let roff, rlen = regions.(i) in
      let tail = roff + rlen - cursor.(i) in
      let rest = if tail > 0 then (cursor.(i), tail) :: !free else !free in
      free := List.rev_append gaps.(i) rest
    done;
    Ok !free
  end

let snapshot t =
  let all = ref [] in
  Array.iter
    (fun p ->
      Queue.iter (fun off -> all := (off, huge) :: !all) p.aligned;
      Extent_tree.iter p.holes (fun ~off ~len -> all := (off, len) :: !all))
    t.pools;
  List.sort compare !all

let first_not_free ~free exts =
  let rec go prev_end exts free =
    match (exts, free) with
    | [], _ -> None
    | (off, len) :: rest, (f_off, f_len) :: _
      when off >= prev_end && len > 0 && f_off <= off && off + len <= f_off + f_len ->
        go (off + len) rest free
    | (off, _) :: _, (f_off, f_len) :: free' when off >= prev_end && f_off + f_len <= off ->
        go prev_end exts free'
    | e :: _, _ -> Some e
  in
  go min_int exts free

let check_invariants t =
  let exception Bad of string in
  try
    let shadow = Extent_tree.create () in
    Array.iteri
      (fun i p ->
        let stripe_off, stripe_len = t.regions.(i) in
        if Queue.length p.aligned <> Flat_table.length p.aligned_set then
          raise
            (Bad
               (Printf.sprintf "cpu %d: aligned queue (%d) / set (%d) size mismatch" i
                  (Queue.length p.aligned)
                  (Flat_table.length p.aligned_set)));
        Queue.iter
          (fun off ->
            if not (Units.is_aligned off huge) then
              raise (Bad (Printf.sprintf "cpu %d: unaligned extent %d in aligned pool" i off));
            if off < stripe_off || off + huge > stripe_off + stripe_len then
              raise (Bad (Printf.sprintf "cpu %d: aligned extent %d outside stripe" i off));
            if not (Flat_table.mem p.aligned_set off) then
              raise (Bad (Printf.sprintf "cpu %d: aligned extent %d missing from set" i off));
            Extent_tree.insert_free shadow ~off ~len:huge)
          p.aligned;
        (match Extent_tree.check_invariants p.holes with
        | Ok () -> ()
        | Error m -> raise (Bad (Printf.sprintf "cpu %d holes: %s" i m)));
        Extent_tree.iter p.holes (fun ~off ~len ->
            if off < stripe_off || off + len > stripe_off + stripe_len then
              raise (Bad (Printf.sprintf "cpu %d: hole %d outside stripe" i off));
            Extent_tree.insert_free shadow ~off ~len))
      t.pools;
    Ok ()
  with
  | Bad m -> Error m
  | Invalid_argument m -> Error ("overlap: " ^ m)
