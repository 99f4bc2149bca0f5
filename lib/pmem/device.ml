open Repro_util

module Cost = struct
  type t = {
    read_ns_per_cl : float;
    write_ns_per_cl : float;
    read_ns_per_byte : float;
    write_ns_per_byte : float;
    flush_ns : float;
    fence_ns : float;
    remote_read_factor : float;
    remote_write_factor : float;
  }

  (* §2.1: 64B accesses cost 100-200ns; read bandwidth about 1/3 DRAM
     (~30GB/s -> 0.033 ns/B), write bandwidth about 0.17x DRAM
     (~8GB/s -> 0.125 ns/B); remote NUMA writes dearer than reads. *)
  let optane =
    {
      read_ns_per_cl = 120.;
      write_ns_per_cl = 100.;
      read_ns_per_byte = 0.033;
      write_ns_per_byte = 0.125;
      flush_ns = 20.;
      fence_ns = 30.;
      remote_read_factor = 1.3;
      remote_write_factor = 2.2;
    }

  let free =
    {
      read_ns_per_cl = 0.;
      write_ns_per_cl = 0.;
      read_ns_per_byte = 0.;
      write_ns_per_byte = 0.;
      flush_ns = 0.;
      fence_ns = 0.;
      remote_read_factor = 1.;
      remote_write_factor = 1.;
    }
end

type pending = { old_bytes : bytes; mutable flushed : bool }

(* Shared placeholder for empty Flat_table slots; never returned from a
   live binding and never mutated. *)
let no_pending = { old_bytes = Bytes.empty; flushed = false }

(* Media faults (simulated MCE): a poisoned line delivers an uncorrectable
   error to any load touching it, the way a real Optane DIMM surfaces bit
   rot the ECC cannot repair. *)
exception Media_error of { off : int }

type fault =
  | Bit_flip of { off : int; bit : int }
      (** Silent corruption: flip one bit of the current media contents. *)
  | Torn_word of { off : int }
      (** The 8-byte word at [off] (rounded down) tears at the next crash:
          in any {!crash_image} it reverts to its pre-store contents even
          when the rest of its cache line survives.  No-op for words whose
          line has no store pending. *)
  | Poison_line of { off : int }
      (** The 64B line containing [off] raises {!Media_error} on any load
          until a store overwrites the full line. *)

(* Persistence-protocol annotations: code that implements an ordering
   protocol (the journals) narrates its intent through these so a
   durability analyzer can check the protocol without understanding the
   on-device format.  Transaction ids come from the annotating layer and
   only need to be unique per device among concurrently-open
   transactions. *)
type protocol =
  | Txn_begin of { txn : int }
  | Txn_commit of { txn : int }
      (** Fired at the instant the commit record is about to persist: every
          range registered with [Covered] must already be durable. *)
  | Txn_abort of { txn : int }
  | Covered of { txn : int; addr : int; len : int }
      (** An undo/redo entry protecting [addr, addr+len) is durable; the
          transaction may now update the range in place. *)
  | Fresh of { addr : int; len : int }
      (** [addr, addr+len) was just allocated and is unreachable from any
          persistent structure, so initializing stores need no undo
          coverage (the initialize-then-publish pattern). *)
  | Recovery_begin
  | Recovery_end

type event =
  | Store of { off : int; len : int; nt : bool }
  | Load of { off : int; len : int }
  | Flush of { off : int; len : int }
  | Fence
  | Protocol of protocol

type hook = Cpu.t option -> Site.t -> event -> unit
type hook_id = int

(* Global stats registry wiring: when {!Repro_stats.Stats.enabled}, every
   store/flush/fence is also counted per ambient {!Site} label.  Resolving
   an instrument by (name, labels) renders strings per call, so the device
   memoizes the counter cells per physically-distinct site, revalidating
   against the registry generation (a {!Stats.reset} drops every
   instrument, stranding cached cells). *)
module Stats = Repro_stats.Stats

type site_cells = {
  sc_site : Site.t; (* cache key: physical identity *)
  mutable sc_store : Stats.Counter.t option;
  mutable sc_nt_store : Stats.Counter.t option;
  mutable sc_load : Stats.Counter.t option;
  mutable sc_flush_lines : Stats.Counter.t option;
  mutable sc_fences : Stats.Counter.t option;
}

type t = {
  data : bytes;
  size : int;
  cost : Cost.t;
  numa_nodes : int;
  node_stripe : int;
  counters : Counters.t;
  (* Pre-resolved device counter cells: the per-access string lookups of
     Counters.add were measurable on the datapath. *)
  c_bytes_read : int ref;
  c_bytes_written : int ref;
  c_flushes : int ref;
  c_fences : int ref;
  mutable tracking : bool;
  pending : pending Flat_table.t; (* cache-line index -> undo info *)
  flushed_lines : Flat_vec.t;
      (* line indices whose pending entry transitioned to flushed since
         the last fence: the fence sweep visits exactly these instead of
         filtering every pending line *)
  mutable fence_sweep_visits : int; (* cumulative; observable for tests *)
  mutable fence_seq : int;
  mutable fence_hook : (int -> unit) option;
  mutable site : Site.t;
  mutable hooks : (hook_id * hook) list; (* installation order *)
  mutable next_hook_id : int;
  mutable legacy_hook : hook_id option; (* the set_event_hook slot *)
  poisoned : unit Flat_table.t; (* cache-line index -> MCE on load *)
  torn : unit Flat_table.t; (* 8-aligned offsets that tear at crash *)
  mutable stat_gen : int;
  mutable stat_cells : site_cells list;
}

let cl = Units.cacheline

let create ?(cost = Cost.optane) ?(numa_nodes = 1) ~size () =
  if size <= 0 then invalid_arg "Device.create: non-positive size";
  if numa_nodes <= 0 then invalid_arg "Device.create: non-positive numa_nodes";
  let size = Units.round_up size cl in
  let counters = Counters.create () in
  {
    data = Bytes.make size '\000';
    size;
    cost;
    numa_nodes;
    node_stripe = Units.round_up (size / numa_nodes) cl;
    counters;
    c_bytes_read = Counters.cell counters "pm.bytes_read";
    c_bytes_written = Counters.cell counters "pm.bytes_written";
    c_flushes = Counters.cell counters "pm.flushes";
    c_fences = Counters.cell counters "pm.fences";
    tracking = false;
    pending = Flat_table.create ~capacity:64 ~dummy:no_pending ();
    flushed_lines = Flat_vec.create ~capacity:64 ();
    fence_sweep_visits = 0;
    fence_seq = 0;
    fence_hook = None;
    site = Site.unknown;
    hooks = [];
    next_hook_id = 0;
    legacy_hook = None;
    poisoned = Flat_table.create ~capacity:8 ~dummy:() ();
    torn = Flat_table.create ~capacity:8 ~dummy:() ();
    stat_gen = -1;
    stat_cells = [];
  }

let size t = t.size
let numa_nodes t = t.numa_nodes

let node_of_offset t off =
  if t.numa_nodes = 1 then 0 else min (t.numa_nodes - 1) (off / t.node_stripe)

let counters t = t.counters
let cost t = t.cost
let reset_counters t = Counters.reset t.counters

let check_range t off len =
  if off < 0 || len < 0 || off + len > t.size then
    invalid_arg
      (Printf.sprintf "Device: range [%d,%d) out of bounds (size %d)" off (off + len)
         t.size)

(* A load touching a poisoned line consumes the MCE before any data moves
   or cost is charged (the CPU never sees the bytes). *)
let check_poison t off len =
  if Flat_table.length t.poisoned > 0 && len > 0 then begin
    let lo = off / cl and hi = (off + len - 1) / cl in
    for line = lo to hi do
      if Flat_table.mem t.poisoned line then raise (Media_error { off = line * cl })
    done
  end

(* Stores never fault, and rewriting an entire 64B line replaces the bad
   media contents: the poison clears (how pmem drivers repair poison —
   a full-line non-temporal overwrite).  Partial stores leave it set. *)
let clear_poison_on_store t off len =
  if Flat_table.length t.poisoned > 0 && len > 0 then begin
    let lo = off / cl and hi = (off + len - 1) / cl in
    for line = lo to hi do
      if off <= line * cl && (line + 1) * cl <= off + len then
        Flat_table.remove t.poisoned line
    done
  end

let remote_factor t (cpu : Cpu.t) ~off ~write =
  if t.numa_nodes = 1 || cpu.node = node_of_offset t off then 1.
  else if write then t.cost.remote_write_factor
  else t.cost.remote_read_factor

(* Sequential lines pipeline: a run of n lines costs one full access latency
   plus a small pipelined per-line charge, plus the bandwidth term.
   Calibrated so single-threaded sequential memcpy lands near the paper's
   ~3GB/s PM write / ~6GB/s read.  The charge is per-extent arithmetic —
   O(1) in the number of lines touched. *)
let pipeline_factor = 0.08

let charge_read t (cpu : Cpu.t) ~off ~len =
  if len > 0 then begin
    let lo = off / cl and hi = (off + len - 1) / cl in
    let extra = float_of_int (hi - lo) in
    let ns =
      t.cost.read_ns_per_cl
      +. (t.cost.read_ns_per_cl *. pipeline_factor *. extra)
      +. (t.cost.read_ns_per_byte *. float_of_int len)
    in
    let ns = ns *. remote_factor t cpu ~off ~write:false in
    Simclock.advance cpu.clock (int_of_float ns)
  end;
  t.c_bytes_read := !(t.c_bytes_read) + len

let charge_write t (cpu : Cpu.t) ~off ~len =
  if len > 0 then begin
    let lo = off / cl and hi = (off + len - 1) / cl in
    let extra = float_of_int (hi - lo) in
    let ns =
      t.cost.write_ns_per_cl
      +. (t.cost.write_ns_per_cl *. pipeline_factor *. extra)
      +. (t.cost.write_ns_per_byte *. float_of_int len)
    in
    let ns = ns *. remote_factor t cpu ~off ~write:true in
    Simclock.advance cpu.clock (int_of_float ns)
  end;
  t.c_bytes_written := !(t.c_bytes_written) + len

(* The memoized per-site stat cells for the ambient site.  Capped: sites
   are module-level constants in practice, but a dynamically-created site
   must not grow the memo without bound — past the cap the uncached entry
   is returned and instruments resolve per call (the old behavior). *)
let site_cells t =
  let gen = Stats.Registry.generation Stats.global in
  if gen <> t.stat_gen then begin
    t.stat_gen <- gen;
    t.stat_cells <- []
  end;
  let site = t.site in
  let rec find = function
    | c :: rest -> if c.sc_site == site then c else find rest
    | [] ->
        let c =
          {
            sc_site = site;
            sc_store = None;
            sc_nt_store = None;
            sc_load = None;
            sc_flush_lines = None;
            sc_fences = None;
          }
        in
        if List.length t.stat_cells < 64 then t.stat_cells <- c :: t.stat_cells;
        c
  in
  find t.stat_cells

let site_counter site name = Stats.Counter.v ~labels:[ ("site", Site.to_string site) ] name

let stat_store t ~len ~nt =
  if Stats.enabled () then begin
    let c = site_cells t in
    let cell =
      if nt then
        match c.sc_nt_store with
        | Some r -> r
        | None ->
            let r = site_counter c.sc_site "pm.nt_store_bytes" in
            c.sc_nt_store <- Some r;
            r
      else
        match c.sc_store with
        | Some r -> r
        | None ->
            let r = site_counter c.sc_site "pm.store_bytes" in
            c.sc_store <- Some r;
            r
    in
    Stats.Counter.add cell len
  end

let stat_load t ~len =
  if Stats.enabled () then begin
    let c = site_cells t in
    let cell =
      match c.sc_load with
      | Some r -> r
      | None ->
          let r = site_counter c.sc_site "pm.load_bytes" in
          c.sc_load <- Some r;
          r
    in
    Stats.Counter.add cell len
  end

let stat_flush t ~lines =
  if Stats.enabled () then begin
    let c = site_cells t in
    let cell =
      match c.sc_flush_lines with
      | Some r -> r
      | None ->
          let r = site_counter c.sc_site "pm.flush_lines" in
          c.sc_flush_lines <- Some r;
          r
    in
    Stats.Counter.add cell lines
  end

let stat_fence t =
  if Stats.enabled () then begin
    let c = site_cells t in
    let cell =
      match c.sc_fences with
      | Some r -> r
      | None ->
          let r = site_counter c.sc_site "pm.fences" in
          c.sc_fences <- Some r;
          r
    in
    Stats.Counter.add cell 1
  end

(* Event-stream instrumentation: every installed hook observes every
   charged access plus the protocol annotations, tagged with the ambient
   site and (for data movement) the accessing CPU — the race detector
   needs to see which simulated thread issued each store.  Hooks run in
   installation order; uninstrumented devices pay one list check per
   access.  The specialized emit_* entry points build the event record
   only when a hook is installed, so the common uninstrumented access
   allocates nothing. *)
let dispatch ?cpu t ev =
  (* The binding snapshots the (immutable) hook list before dispatch:
     a hook that calls [remove_event_hook] — even on itself — replaces
     [t.hooks] with a new list, so every sibling installed at emit time
     still fires exactly once. *)
  match t.hooks with
  | [] -> ()
  | hooks -> List.iter (fun (_, h) -> h cpu t.site ev) hooks

let emit_store ?cpu t ~off ~len ~nt =
  (match t.hooks with
  | [] -> ()
  | _ -> dispatch ?cpu t (Store { off; len; nt }));
  stat_store t ~len ~nt

let emit_load ?cpu t ~off ~len =
  (match t.hooks with
  | [] -> ()
  | _ -> dispatch ?cpu t (Load { off; len }));
  stat_load t ~len

let current_site t = t.site

(* Hand-rolled unwind instead of Fun.protect: this brackets every
   persistence call, and the finally-closure allocation was visible in
   aging profiles. *)
let with_site t site f =
  let prev = t.site in
  t.site <- site;
  match f () with
  | v ->
      t.site <- prev;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      t.site <- prev;
      Printexc.raise_with_backtrace e bt

let add_event_hook t hook =
  let id = t.next_hook_id in
  t.next_hook_id <- id + 1;
  t.hooks <- t.hooks @ [ (id, hook) ];
  id

let remove_event_hook t id = t.hooks <- List.filter (fun (i, _) -> i <> id) t.hooks

let set_event_hook t hook =
  (match t.legacy_hook with
  | Some id ->
      remove_event_hook t id;
      t.legacy_hook <- None
  | None -> ());
  match hook with None -> () | Some h -> t.legacy_hook <- Some (add_event_hook t h)

let annotate t p = dispatch t (Protocol p)

let track_store ?(nt = false) t off len =
  if t.tracking && len > 0 then begin
    let lo = off / cl and hi = (off + len - 1) / cl in
    for line = lo to hi do
      match Flat_table.find t.pending line with
      | Some p ->
          if nt then begin
            if not p.flushed then begin
              p.flushed <- true;
              Flat_vec.push t.flushed_lines line
            end
          end
          else p.flushed <- false
      | None ->
          let old_bytes = Bytes.sub t.data (line * cl) cl in
          Flat_table.set t.pending line { old_bytes; flushed = nt };
          if nt then Flat_vec.push t.flushed_lines line
    done
  end

let read t cpu ~off ~len ~dst ~dst_off =
  check_range t off len;
  check_poison t off len;
  charge_read t cpu ~off ~len;
  Bytes.blit t.data off dst dst_off len;
  emit_load ~cpu t ~off ~len

let write t cpu ~off ~src ~src_off ~len =
  check_range t off len;
  track_store t off len;
  clear_poison_on_store t off len;
  charge_write t cpu ~off ~len;
  Bytes.blit src src_off t.data off len;
  emit_store ~cpu t ~off ~len ~nt:false

let read_string t cpu ~off ~len =
  check_range t off len;
  check_poison t off len;
  charge_read t cpu ~off ~len;
  emit_load ~cpu t ~off ~len;
  Bytes.sub_string t.data off len

let write_string t cpu ~off s =
  let len = String.length s in
  check_range t off len;
  track_store t off len;
  clear_poison_on_store t off len;
  charge_write t cpu ~off ~len;
  Bytes.blit_string s 0 t.data off len;
  emit_store ~cpu t ~off ~len ~nt:false

(* Non-temporal stores: bypass the cache and become durable at the next
   fence without explicit clwb (the fast path PM file systems use for bulk
   data). *)
let write_nt t cpu ~off ~src ~src_off ~len =
  check_range t off len;
  track_store ~nt:true t off len;
  clear_poison_on_store t off len;
  charge_write t cpu ~off ~len;
  Bytes.blit src src_off t.data off len;
  emit_store ~cpu t ~off ~len ~nt:true

let write_string_nt t cpu ~off s =
  let len = String.length s in
  check_range t off len;
  track_store ~nt:true t off len;
  clear_poison_on_store t off len;
  charge_write t cpu ~off ~len;
  Bytes.blit_string s 0 t.data off len;
  emit_store ~cpu t ~off ~len ~nt:true

let memset_nt t cpu ~off ~len c =
  check_range t off len;
  track_store ~nt:true t off len;
  clear_poison_on_store t off len;
  charge_write t cpu ~off ~len;
  Bytes.fill t.data off len c;
  emit_store ~cpu t ~off ~len ~nt:true

let copy_within_nt t cpu ~src ~dst ~len =
  check_range t src len;
  check_range t dst len;
  check_poison t src len;
  charge_read t cpu ~off:src ~len;
  track_store ~nt:true t dst len;
  clear_poison_on_store t dst len;
  charge_write t cpu ~off:dst ~len;
  Bytes.blit t.data src t.data dst len;
  emit_load ~cpu t ~off:src ~len;
  emit_store ~cpu t ~off:dst ~len ~nt:true

let memset t cpu ~off ~len c =
  check_range t off len;
  track_store t off len;
  clear_poison_on_store t off len;
  charge_write t cpu ~off ~len;
  Bytes.fill t.data off len c;
  emit_store ~cpu t ~off ~len ~nt:false

let copy_within t cpu ~src ~dst ~len =
  check_range t src len;
  check_range t dst len;
  check_poison t src len;
  charge_read t cpu ~off:src ~len;
  track_store t dst len;
  clear_poison_on_store t dst len;
  charge_write t cpu ~off:dst ~len;
  Bytes.blit t.data src t.data dst len;
  emit_load ~cpu t ~off:src ~len;
  emit_store ~cpu t ~off:dst ~len ~nt:false

let read_u64 t cpu ~off =
  check_range t off 8;
  check_poison t off 8;
  charge_read t cpu ~off ~len:8;
  emit_load ~cpu t ~off ~len:8;
  Bytes.get_int64_le t.data off

let write_u64 t cpu ~off v =
  check_range t off 8;
  track_store t off 8;
  charge_write t cpu ~off ~len:8;
  Bytes.set_int64_le t.data off v;
  emit_store ~cpu t ~off ~len:8 ~nt:false

let peek t ~off ~len ~dst ~dst_off =
  check_range t off len;
  check_poison t off len;
  Bytes.blit t.data off dst dst_off len

let touch_read t cpu ~off ~len =
  check_range t off len;
  check_poison t off len;
  charge_read t cpu ~off ~len;
  emit_load ~cpu t ~off ~len

let flush t (cpu : Cpu.t) ~off ~len =
  check_range t off len;
  if len > 0 then begin
    let lo = off / cl and hi = (off + len - 1) / cl in
    let n_lines = hi - lo + 1 in
    t.c_flushes := !(t.c_flushes) + n_lines;
    Simclock.advance cpu.clock (int_of_float (t.cost.flush_ns *. float_of_int n_lines));
    if t.tracking then
      for line = lo to hi do
        match Flat_table.find t.pending line with
        | Some p ->
            if not p.flushed then begin
              p.flushed <- true;
              Flat_vec.push t.flushed_lines line
            end
        | None -> ()
      done;
    (match t.hooks with
    | [] -> ()
    | _ -> dispatch ~cpu t (Flush { off; len }));
    stat_flush t ~lines:n_lines
  end

let fence t (cpu : Cpu.t) =
  incr t.c_fences;
  Simclock.advance cpu.clock (int_of_float t.cost.fence_ns);
  t.fence_seq <- t.fence_seq + 1;
  (match t.fence_hook with Some hook -> hook t.fence_seq | None -> ());
  (match t.hooks with [] -> () | _ -> dispatch ~cpu t Fence);
  stat_fence t;
  if t.tracking then begin
    (* O(flushed): only lines recorded as flushed since the last fence
       are visited, not every pending line. *)
    Flat_vec.iter t.flushed_lines (fun line ->
        t.fence_sweep_visits <- t.fence_sweep_visits + 1;
        match Flat_table.find t.pending line with
        | Some p when p.flushed -> Flat_table.remove t.pending line
        | _ -> ());
    Flat_vec.clear t.flushed_lines
  end

let persist t cpu ~off ~len =
  flush t cpu ~off ~len;
  fence t cpu

let set_tracking t on =
  t.tracking <- on;
  if not on then begin
    Flat_table.clear t.pending;
    Flat_vec.clear t.flushed_lines
  end

let pending_lines t = Flat_table.keys_sorted t.pending

let pending_old t line =
  match Flat_table.find t.pending line with
  | Some p -> Some (Bytes.copy p.old_bytes)
  | None -> None

let fence_sweep_visits t = t.fence_sweep_visits

(* ------------------------------------------------------------------ *)
(* Fault injection.  Deterministic campaigns plant faults directly on
   the media; the checkers then verify the stack detects them.  Counted
   per kind in the device counters and the global stats registry. *)

let fault_kind_name = function
  | Bit_flip _ -> "bit_flip"
  | Torn_word _ -> "torn_word"
  | Poison_line _ -> "poison_line"

let inject t fault =
  (match fault with
  | Bit_flip { off; bit } ->
      check_range t off 1;
      if bit < 0 || bit > 7 then invalid_arg "Device.inject: bit outside 0..7";
      Bytes.set t.data off (Char.chr (Char.code (Bytes.get t.data off) lxor (1 lsl bit)))
  | Torn_word { off } ->
      check_range t off 8;
      Flat_table.set t.torn (off land lnot 7) ()
  | Poison_line { off } ->
      check_range t off 1;
      Flat_table.set t.poisoned (off / cl) ());
  Counters.incr t.counters "pm.faults_injected";
  if Stats.enabled () then
    Stats.counter_add ~labels:[ ("kind", fault_kind_name fault) ] "fault.injected" 1

let poisoned_lines t = Flat_table.keys_sorted t.poisoned

let clear_faults t =
  Flat_table.clear t.poisoned;
  Flat_table.clear t.torn

let crash_image t ~persisted =
  if not t.tracking then invalid_arg "Device.crash_image: tracking disabled";
  let counters = Counters.create () in
  let img =
    {
      data = Bytes.copy t.data;
      size = t.size;
      cost = t.cost;
      numa_nodes = t.numa_nodes;
      node_stripe = t.node_stripe;
      counters;
      c_bytes_read = Counters.cell counters "pm.bytes_read";
      c_bytes_written = Counters.cell counters "pm.bytes_written";
      c_flushes = Counters.cell counters "pm.flushes";
      c_fences = Counters.cell counters "pm.fences";
      tracking = false;
      pending = Flat_table.create ~capacity:8 ~dummy:no_pending ();
      flushed_lines = Flat_vec.create ~capacity:8 ();
      fence_sweep_visits = 0;
      fence_seq = 0;
      fence_hook = None;
      site = Site.unknown;
      hooks = [];
      next_hook_id = 0;
      legacy_hook = None;
      poisoned = Flat_table.copy t.poisoned (* media faults survive a crash *);
      torn = Flat_table.create ~capacity:8 ~dummy:() ();
      stat_gen = -1;
      stat_cells = [];
    }
  in
  Flat_table.keys_sorted t.pending
  |> List.iter (fun line ->
         match Flat_table.find t.pending line with
         | Some p when not (persisted line) -> Bytes.blit p.old_bytes 0 img.data (line * cl) cl
         | _ -> ());
  (* Torn words compose with the surviving-line choice: even when the
     containing line is chosen as persisted, the registered 8-byte word
     reverts to its pre-store bytes (intra-line tearing — the store of
     that word never reached the media).  Words on lines with no pending
     store are already durable and cannot tear. *)
  Flat_table.keys_sorted t.torn
  |> List.iter (fun off ->
         match Flat_table.find t.pending (off / cl) with
         | Some p -> Bytes.blit p.old_bytes (off mod cl) img.data off 8
         | None -> ());
  img

let fence_seq t = t.fence_seq

let set_fence_hook t hook = t.fence_hook <- hook

let reset_fence_seq t = t.fence_seq <- 0

exception Crash_point of int list

let crash_at ?(on_crash = ignore) t ~fence f =
  set_tracking t true;
  reset_fence_seq t;
  t.fence_hook <-
    Some
      (fun seq ->
        if seq = fence then begin
          let lines = pending_lines t in
          on_crash lines;
          raise (Crash_point lines)
        end);
  Fun.protect
    ~finally:(fun () -> t.fence_hook <- None)
    (fun () -> match f () with () -> None | exception Crash_point lines -> Some lines)

let save_file t path =
  let oc = open_out_bin path in
  output_bytes oc t.data;
  close_out oc

let load_file ?cost ?numa_nodes path =
  let ic = open_in_bin path in
  let size = in_channel_length ic in
  let t = create ?cost ?numa_nodes ~size () in
  really_input ic t.data 0 size;
  close_in ic;
  t
