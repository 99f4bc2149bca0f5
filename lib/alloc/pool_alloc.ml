open Repro_util
module Extent_tree = Repro_rbtree.Extent_tree
module Sched = Repro_sched.Sched

type policy = First_fit | Best_fit | Goal of (unit -> int)

type config = {
  per_cpu : bool;
  policy : policy;
  align_exact_2m : bool;
  normalize_pow2 : bool;
}

type extent = { off : int; len : int }

let huge = Units.huge_page

type pool = { stripe_off : int; stripe_len : int; tree : Extent_tree.t }

type t = { cfg : config; pools : pool array }

(* Race-detector annotation for a pool's free tree.  Per-CPU pools must
   stay thread-exclusive (cross-CPU stealing aside); a shared pool needs
   a consistent caller-held lock.  Aggregate read-only queries
   ([free_bytes], [largest_free], the fallback largest-fragment scan) are
   deliberately {e not} annotated: they are racy-by-design heuristics
   whose staleness only costs a retry, never corruption. *)
let note p ~write ~site =
  if Sched.monitored () then
    Sched.access ~obj:(Printf.sprintf "alloc.pool[%#x]" p.stripe_off) ~write ~site

let restore cfg ~cpus ~regions ~free:free_list =
  if cpus <= 0 || Array.length regions <> cpus then
    invalid_arg "Pool_alloc.restore: bad region count";
  let pools =
    if cfg.per_cpu then
      Array.map
        (fun (off, len) -> { stripe_off = off; stripe_len = len; tree = Extent_tree.create () })
        regions
    else begin
      let lo = Array.fold_left (fun acc (off, _) -> min acc off) max_int regions in
      let hi = Array.fold_left (fun acc (off, len) -> max acc (off + len)) 0 regions in
      [| { stripe_off = lo; stripe_len = hi - lo; tree = Extent_tree.create () } |]
    end
  in
  let t = { cfg; pools } in
  List.iter
    (fun (off, len) ->
      let p =
        if cfg.per_cpu then begin
          let rec find i =
            if i >= Array.length pools then invalid_arg "Pool_alloc: extent outside regions"
            else
              let p = pools.(i) in
              if off >= p.stripe_off && off < p.stripe_off + p.stripe_len then p
              else find (i + 1)
          in
          find 0
        end
        else pools.(0)
      in
      Extent_tree.insert_free p.tree ~off ~len)
    free_list;
  t

let create cfg ~cpus ~regions = restore cfg ~cpus ~regions ~free:(Array.to_list regions)

let pool_of t ~cpu = if t.cfg.per_cpu then t.pools.(cpu mod Array.length t.pools) else t.pools.(0)

let pool_of_offset t off =
  if not t.cfg.per_cpu then t.pools.(0)
  else begin
    let n = Array.length t.pools in
    let rec find i =
      if i >= n then invalid_arg "Pool_alloc.free: offset outside data area"
      else
        let p = t.pools.(i) in
        if off >= p.stripe_off && off < p.stripe_off + p.stripe_len then p else find (i + 1)
    in
    find 0
  end

let free t ~off ~len =
  let p = pool_of_offset t off in
  note p ~write:true ~site:"pool_alloc.free";
  Extent_tree.insert_free p.tree ~off ~len

let free_bytes t = Array.fold_left (fun acc p -> acc + Extent_tree.total_free p.tree) 0 t.pools

let aligned_region_count t =
  Array.fold_left (fun acc p -> acc + Extent_tree.aligned_region_count p.tree ~align:huge) 0 t.pools

let free_extent_count t =
  Array.fold_left (fun acc p -> acc + Extent_tree.extent_count p.tree) 0 t.pools

let largest_free t = Array.fold_left (fun acc p -> max acc (Extent_tree.largest p.tree)) 0 t.pools

(* mballoc-style normalisation: round the request up to the next power of
   two, capped at 2MB (requests beyond that already allocate in 2MB
   passes).  The surplus is freed back immediately, which reproduces
   ext4's tendency to leave power-of-two-shaped free space. *)
let normalize len =
  if len >= huge then len
  else begin
    let p = ref Units.base_page in
    while !p < len do
      p := !p * 2
    done;
    !p
  end

let try_once ?goal ?(request_exact_2m = false) t ~cpu ~len =
  let p = pool_of t ~cpu in
  note p ~write:true ~site:"pool_alloc.alloc";
  let from_tree tree =
    match (t.cfg.policy, goal) with
    | _, Some g -> Extent_tree.alloc_near tree ~goal:g ~len
    | First_fit, None -> Extent_tree.alloc_first_fit tree ~len
    | Best_fit, None -> Extent_tree.alloc_best_fit tree ~len
    | Goal f, None -> Extent_tree.alloc_near tree ~goal:(f ()) ~len
  in
  (* NOVA attempts 2MB alignment only when the caller's original request
     was an exact multiple of 2MB (§6) — an explicit preference.  ext4's
     mballoc buddy structure yields aligned chunks only as a fallback:
     the paper observes ext4 "ends up using only 3k of 12k available
     aligned extents" because locality comes first (§2.5). *)
  let nova_aligned =
    if t.cfg.align_exact_2m && request_exact_2m && len mod huge = 0 then
      Extent_tree.alloc_aligned p.tree ~len ~align:huge
    else None
  in
  (* ext4 mballoc: buddy alignment applies within the locality
     neighbourhood of the goal; aligned extents elsewhere go unused
     ("12k available, only 3k used", §2.5). *)
  let buddy_near () =
    if t.cfg.normalize_pow2 && len land (len - 1) = 0 && len >= Units.base_page then
      let g = match goal with Some g -> g | None -> p.stripe_off in
      (* Window ~ a block group relative to the device. *)
      let window = 4 * Units.mib in
      Extent_tree.alloc_aligned_near p.tree ~goal:g ~window ~len ~align:(min len huge)
    else None
  in
  match nova_aligned with
  | Some off -> Some off
  | None -> (
      match buddy_near () with
      | Some off -> Some off
      | None -> (
      match from_tree p.tree with
      | Some off -> Some off
      | None ->
          if t.cfg.per_cpu then begin
            (* Borrow from the other pools. *)
            let n = Array.length t.pools in
            let rec steal i =
              if i >= n then None
              else if i = cpu mod n then steal (i + 1)
              else begin
                note t.pools.(i) ~write:true ~site:"pool_alloc.steal";
                match from_tree t.pools.(i).tree with
                | Some off -> Some off
                | None -> steal (i + 1)
              end
            in
            steal 0
          end
          else None))

let alloc ?goal t ~cpu ~len =
  if len <= 0 then invalid_arg "Pool_alloc.alloc: non-positive length";
  if free_bytes t < len then None
  else begin
    let request_exact_2m = len mod huge = 0 in
    let grab len =
      let ask = if t.cfg.normalize_pow2 then normalize len else len in
      match try_once ?goal ~request_exact_2m t ~cpu ~len:ask with
      | Some off ->
          if ask > len then free t ~off:(off + len) ~len:(ask - len);
          Some { off; len }
      | None -> (
          (* Retry without normalisation before fragmenting. *)
          match try_once ?goal ~request_exact_2m t ~cpu ~len with
          | Some off -> Some { off; len }
          | None -> None)
    in
    (* Allocate in <= 2MB passes, falling back to largest-fragment
       gathering so allocation only fails when space is truly gone. *)
    let rec go remaining acc =
      if remaining = 0 then Some (List.rev acc)
      else
        let ask = min remaining huge in
        match grab ask with
        | Some e -> go (remaining - ask) (e :: acc)
        | None ->
            let best = ref None in
            Array.iter
              (fun p ->
                let l = Extent_tree.largest p.tree in
                match !best with
                | Some (_, bl) when bl >= l -> ()
                | _ -> if l > 0 then best := Some (p, l))
              t.pools;
            (match !best with
            | None ->
                List.iter (fun e -> free t ~off:e.off ~len:e.len) acc;
                None
            | Some (p, l) ->
                let take = min remaining l in
                note p ~write:true ~site:"pool_alloc.gather";
                (match Extent_tree.alloc_best_fit p.tree ~len:take with
                | Some off -> go (remaining - take) ({ off; len = take } :: acc)
                | None ->
                    List.iter (fun e -> free t ~off:e.off ~len:e.len) acc;
                    None))
    in
    go len []
  end
