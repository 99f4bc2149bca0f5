module Device = Repro_pmem.Device
module Site = Repro_pmem.Site

let cl = Repro_util.Units.cacheline

type rule =
  | R1_missing_flush
  | R2_missing_fence
  | R3_redundant_flush
  | R4_undo_protocol
  | R5_commit_order

let all_rules =
  [ R1_missing_flush; R2_missing_fence; R3_redundant_flush; R4_undo_protocol; R5_commit_order ]

let rule_name = function
  | R1_missing_flush -> "R1-missing-flush"
  | R2_missing_fence -> "R2-missing-fence"
  | R3_redundant_flush -> "R3-redundant-flush"
  | R4_undo_protocol -> "R4-undo-protocol"
  | R5_commit_order -> "R5-commit-order"

let rule_code = function
  | R1_missing_flush -> 1
  | R2_missing_fence -> 2
  | R3_redundant_flush -> 3
  | R4_undo_protocol -> 4
  | R5_commit_order -> 5

type severity = Error | Warning

type diag = {
  rule : rule;
  severity : severity;
  site : Site.t;
  line : int; (* cache-line index; byte offset = line * 64 *)
  count : int;
  detail : string;
}

exception Violation of diag

let diag_offset d = d.line * cl

let diag_to_string d =
  Printf.sprintf "%s %s @ %s cl=%d off=%#x%s: %s" (rule_name d.rule)
    (match d.severity with Error -> "error" | Warning -> "warning")
    (Site.to_string d.site) d.line (diag_offset d)
    (if d.count > 1 then Printf.sprintf " x%d" d.count else "")
    d.detail

(* Per-transaction protocol state: the ranges whose undo entries are
   durable (legal to update in place) and the era at which the
   transaction opened, used to age out stores that predate it. *)
type txn = { begin_era : int; mutable covered : (int * int) list }

type t = {
  dev : Device.t;
  mutable hook : Device.hook_id option;
  strict : bool;
  enabled : bool array; (* indexed by rule_code *)
  (* Shadow per-line state machine.  A line is {e durable} when absent
     from [shadow]; present lines are dirty, or flushed-awaiting-fence
     when also in [flushed].  The value is the site of the last store. *)
  shadow : (int, Site.t) Hashtbl.t;
  flushed : (int, unit) Hashtbl.t;
  txns : (int, txn) Hashtbl.t;
  mutable era : int;
  (* Byte ranges stored inside an open transaction without undo coverage,
     kept for the R4 check at cover time: (lo, hi, era, store site). *)
  mutable unprotected : (int * int * int * Site.t) list;
  (* Freshly allocated, unreachable ranges exempt from R4 (same lifetime
     as [unprotected]: cleared when the last transaction ends). *)
  mutable fresh : (int * int) list;
  mutable recovering : bool;
  mutable diags_rev : diag list;
  seen : (int * int, unit) Hashtbl.t; (* (rule code, line) dedup *)
  redundant : (Site.t, int ref * int) Hashtbl.t; (* R3: count, first line *)
}

let enabled t r = t.enabled.(rule_code r)

let emit t ~rule ~severity ~site ~line detail =
  if not (Hashtbl.mem t.seen (rule_code rule, line)) then begin
    Hashtbl.replace t.seen (rule_code rule, line) ();
    let d = { rule; severity; site; line; count = 1; detail } in
    t.diags_rev <- d :: t.diags_rev;
    if severity = Error && t.strict then raise (Violation d)
  end

let lines_of off len = (off / cl, (off + len - 1) / cl)

let durable_range t lo hi =
  let llo, lhi = lines_of lo (hi - lo) in
  let rec check l = l > lhi || ((not (Hashtbl.mem t.shadow l)) && check (l + 1)) in
  check llo

(* Pieces of [lo, hi) not intersecting [clo, chi). *)
let subtract (lo, hi) (clo, chi) =
  if chi <= lo || clo >= hi then [ (lo, hi) ]
  else (if lo < clo then [ (lo, clo) ] else []) @ if chi < hi then [ (chi, hi) ] else []

let subtract_covered t ranges =
  let ranges =
    List.fold_left (fun acc c -> List.concat_map (fun r -> subtract r c) acc) ranges t.fresh
  in
  Hashtbl.fold
    (fun _ txn acc ->
      List.fold_left (fun acc c -> List.concat_map (fun r -> subtract r c) acc) acc txn.covered)
    t.txns ranges

let prune_unprotected t =
  t.unprotected <-
    List.filter (fun (lo, hi, _, _) -> not (durable_range t lo hi)) t.unprotected

let on_store t site ~off ~len ~nt =
  let llo, lhi = lines_of off len in
  for line = llo to lhi do
    Hashtbl.replace t.shadow line site;
    if nt then Hashtbl.replace t.flushed line () else Hashtbl.remove t.flushed line
  done;
  if enabled t R4_undo_protocol && Hashtbl.length t.txns > 0 then begin
    let pieces = subtract_covered t [ (off, off + len) ] in
    t.unprotected <-
      List.fold_left (fun acc (lo, hi) -> (lo, hi, t.era, site) :: acc) t.unprotected pieces;
    if List.length t.unprotected > 1024 then prune_unprotected t
  end

let on_flush t site ~off ~len =
  let llo, lhi = lines_of off len in
  for line = llo to lhi do
    if Hashtbl.mem t.shadow line && not (Hashtbl.mem t.flushed line) then
      Hashtbl.replace t.flushed line ()
    else if enabled t R3_redundant_flush then
      match Hashtbl.find_opt t.redundant site with
      | Some (n, _) -> incr n
      | None -> Hashtbl.replace t.redundant site (ref 1, line)
  done

let on_fence t =
  Hashtbl.fold (fun line () acc -> line :: acc) t.flushed []
  |> List.sort Int.compare
  |> List.iter (Hashtbl.remove t.shadow);
  Hashtbl.reset t.flushed

let on_load t _site ~off ~len =
  if t.recovering && enabled t R2_missing_fence && len > 0 then begin
    let llo, lhi = lines_of off len in
    for line = llo to lhi do
      match Hashtbl.find_opt t.shadow line with
      | None -> ()
      | Some store_site ->
          let state = if Hashtbl.mem t.flushed line then "flushed, unfenced" else "dirty" in
          emit t ~rule:R2_missing_fence ~severity:Error ~site:store_site ~line
            (Printf.sprintf "recovery read a non-durable line (%s) written by %s" state
               (Site.to_string store_site))
    done
  end

let find_txn t id =
  match Hashtbl.find_opt t.txns id with
  | Some txn -> txn
  | None ->
      (* Covered/commit without an explicit begin: adopt era 0 so every
         recorded store is in scope. *)
      let txn = { begin_era = 0; covered = [] } in
      Hashtbl.replace t.txns id txn;
      txn

let drop_txn t id =
  Hashtbl.remove t.txns id;
  if Hashtbl.length t.txns = 0 then begin
    t.unprotected <- [];
    t.fresh <- []
  end

let on_covered t cover_site ~txn:id ~addr ~len =
  let txn = find_txn t id in
  if enabled t R4_undo_protocol then begin
    let lo = addr and hi = addr + len in
    let remaining = ref [] in
    List.iter
      (fun ((slo, shi, era, ssite) as entry) ->
        if era >= txn.begin_era && shi > lo && slo < hi then begin
          let llo, _ = lines_of (max slo lo) 1 in
          emit t ~rule:R4_undo_protocol ~severity:Error ~site:ssite ~line:llo
            (Printf.sprintf
               "in-place store [%#x,%#x) by %s precedes its undo entry (covered at %s)" slo shi
               (Site.to_string ssite) (Site.to_string cover_site));
          List.iter
            (fun (rlo, rhi) -> remaining := (rlo, rhi, era, ssite) :: !remaining)
            (subtract (slo, shi) (lo, hi))
        end
        else remaining := entry :: !remaining)
      t.unprotected;
    t.unprotected <- !remaining
  end;
  txn.covered <- (addr, addr + len) :: txn.covered

let on_commit t commit_site ~txn:id =
  (match Hashtbl.find_opt t.txns id with
  | None -> ()
  | Some txn ->
      if enabled t R1_missing_flush || enabled t R5_commit_order then
        List.iter
          (fun (lo, hi) ->
            let llo, lhi = lines_of lo (hi - lo) in
            for line = llo to lhi do
              match Hashtbl.find_opt t.shadow line with
              | None -> ()
              | Some store_site ->
                  if Hashtbl.mem t.flushed line then begin
                    if enabled t R5_commit_order then
                      emit t ~rule:R5_commit_order ~severity:Error ~site:store_site ~line
                        (Printf.sprintf
                           "covered line flushed but not fenced when %s persisted the commit \
                            record"
                           (Site.to_string commit_site))
                  end
                  else if enabled t R1_missing_flush then
                    emit t ~rule:R1_missing_flush ~severity:Error ~site:store_site ~line
                      (Printf.sprintf
                         "covered line still dirty when %s persisted the commit record"
                         (Site.to_string commit_site))
            done)
          txn.covered);
  drop_txn t id

let on_protocol t site (p : Device.protocol) =
  match p with
  | Txn_begin { txn } ->
      t.era <- t.era + 1;
      Hashtbl.replace t.txns txn { begin_era = t.era; covered = [] }
  | Covered { txn; addr; len } -> on_covered t site ~txn ~addr ~len
  | Fresh { addr; len } ->
      if Hashtbl.length t.txns > 0 then begin
        t.fresh <- (addr, addr + len) :: t.fresh;
        (* Exempt retroactively too: annotation and memset order is the
           caller's choice. *)
        t.unprotected <-
          List.concat_map
            (fun (lo, hi, era, site) ->
              List.map (fun (l, h) -> (l, h, era, site)) (subtract (lo, hi) (addr, addr + len)))
            t.unprotected
      end
  | Txn_commit { txn } -> on_commit t site ~txn
  | Txn_abort { txn } -> drop_txn t txn
  | Recovery_begin -> t.recovering <- true
  | Recovery_end -> t.recovering <- false

let on_event t _cpu site (ev : Device.event) =
  match ev with
  | Store { off; len; nt } -> if len > 0 then on_store t site ~off ~len ~nt
  | Load { off; len } -> if len > 0 then on_load t site ~off ~len
  | Flush { off; len } -> if len > 0 then on_flush t site ~off ~len
  | Fence -> on_fence t
  | Protocol p -> on_protocol t site p

let attach ?(strict = false) ?(rules = all_rules) dev =
  let enabled = Array.make 6 false in
  List.iter (fun r -> enabled.(rule_code r) <- true) rules;
  let t =
    {
      dev;
      hook = None;
      strict;
      enabled;
      shadow = Hashtbl.create 1024;
      flushed = Hashtbl.create 256;
      txns = Hashtbl.create 8;
      era = 0;
      unprotected = [];
      fresh = [];
      recovering = false;
      diags_rev = [];
      seen = Hashtbl.create 64;
      redundant = Hashtbl.create 32;
    }
  in
  t.hook <- Some (Device.add_event_hook dev (on_event t));
  t

let detach t =
  match t.hook with
  | Some id ->
      Device.remove_event_hook t.dev id;
      t.hook <- None
  | None -> ()

let diags t = List.rev t.diags_rev

(* End-of-run checks: R2 for lines left flushed-but-unfenced (a forgotten
   sfence; plain dirty lines are allowed — un-synced data is legal), plus
   the aggregated R3 per-site redundant-flush counts. *)
let finish t =
  (* Sorted traversals: the report order must not depend on bucket order. *)
  Hashtbl.fold (fun line () acc -> line :: acc) t.flushed []
  |> List.sort Int.compare
  |> List.iter (fun line ->
         match Hashtbl.find_opt t.shadow line with
         | None -> ()
         | Some store_site ->
             emit t ~rule:R2_missing_fence ~severity:Error ~site:store_site ~line
               (Printf.sprintf "line flushed by %s never fenced before unmount"
                  (Site.to_string store_site)));
  Hashtbl.fold (fun site v acc -> (site, v) :: acc) t.redundant []
  |> List.sort (fun (a, _) (b, _) -> String.compare (Site.to_string a) (Site.to_string b))
  |> List.iter
       (fun (site, (n, first_line)) ->
      let d =
        {
          rule = R3_redundant_flush;
          severity = Warning;
          site;
          line = first_line;
          count = !n;
          detail =
            Printf.sprintf "%d flush(es) of clean or already-flushed lines (perf)" !n;
        }
      in
      t.diags_rev <- d :: t.diags_rev);
  Hashtbl.reset t.redundant;
  diags t

let with_device ?strict ?rules dev f =
  let t = attach ?strict ?rules dev in
  match f t with
  | v ->
      let ds = finish t in
      detach t;
      (v, ds)
  | exception e ->
      detach t;
      raise e
