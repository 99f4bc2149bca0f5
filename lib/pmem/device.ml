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
   access is counted per ambient {!Site} label under one of five
   instruments.  Resolving an instrument by (name, labels) renders strings
   per call, so the device memoizes the counter cells per
   physically-distinct site, revalidating against the registry generation
   (a {!Stats.reset} drops every instrument, stranding cached cells). *)
module Stats = Repro_stats.Stats

let i_store = 0
let i_nt_store = 1
let i_load = 2
let i_flush_lines = 3
let i_fences = 4

let instruments =
  [| "pm.store_bytes"; "pm.nt_store_bytes"; "pm.load_bytes"; "pm.flush_lines"; "pm.fences" |]

type site_cells = {
  sc_site : Site.t; (* cache key: physical identity *)
  sc_cells : Stats.Counter.t option array; (* indexed by instrument *)
}

(* The image is a table of fixed 64 KiB chunks.  A chunk the device
   does not own -- a shared uniform chunk, or one shared with a crash
   image -- is read in place and copied before its first store, so a
   fresh device and a crash image cost O(chunks written), not O(size).
   Cache lines never straddle a chunk. *)
let chunk_bits = 16
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1

(* One shared chunk per byte value, made on first use and never stored
   to, by any device.  Every unwritten chunk points at the ['\000']
   entry; a whole-chunk store from a uniform string points its chunk at
   that byte's entry.  Two domains racing to make an entry build equal
   chunks, and a device holding either one reads the right bytes. *)
let uniform = Array.make 256 Bytes.empty

let uniform_chunk code =
  let u = uniform.(code) in
  if Bytes.length u > 0 then u
  else begin
    let u = Bytes.make chunk_size (Char.unsafe_chr code) in
    uniform.(code) <- u;
    u
  end

let zero_chunk = uniform_chunk 0

(* Whether each recent whole-chunk store source is uniform: its byte
   code, or -1.  Keyed on physical equality, which is sound because the
   sources are immutable strings and a weak key that still answers is
   alive, so no other string can share its address.  Weak, so a dead
   payload is not kept alive. *)
let memo_slots = 4

type memo = { keys : string Weak.t; codes : int array; mutable last : int }

type t = {
  chunks : bytes array;
  owned : bool array; (* chunk i is this device's alone, safe to store to *)
  mutable spare : bytes list;
      (* owned chunks a uniform store displaced, still this device's
         alone: [writable] copies into one before it allocates, so
         owned + spare never exceeds the chunk count *)
  mutable memo : memo option; (* made by the first whole-chunk string store *)
  word : bytes; (* staging for a u64 access that straddles two chunks *)
  size : int;
  cost : Cost.t;
  numa_nodes : int;
  node_stripe : int;
  mutable tracking : bool;
  pending : pending Flat_table.t; (* cache-line index -> undo info *)
  flushed_lines : Flat_vec.t;
      (* line indices whose pending entry transitioned to flushed since
         the last fence: the fence sweep visits exactly these instead of
         filtering every pending line *)
  mutable fence_sweep_visits : int; (* cumulative; observable for tests *)
  mutable fence_seq : int;
  mutable fence_hook : (int -> unit) option; (* crash_at's abort *)
  mutable site : Site.t;
  mutable hooks : (hook_id * hook) list; (* installation order *)
  mutable next_hook_id : int;
  poisoned : unit Flat_table.t; (* cache-line index -> MCE on load *)
  torn : unit Flat_table.t; (* 8-aligned offsets that tear at crash *)
  mutable stat_gen : int;
  mutable stat_cells : site_cells list;
}

let cl = Units.cacheline

(* The one constructor: a fresh device and a crash image differ only in
   their chunk table and the poison they inherit.  No chunk starts owned. *)
let make ~cost ~numa_nodes ~poisoned ~size chunks =
  {
    chunks;
    owned = Array.make (Array.length chunks) false;
    spare = [];
    memo = None;
    word = Bytes.create 8;
    size;
    cost;
    numa_nodes;
    node_stripe = Units.round_up (size / numa_nodes) cl;
    tracking = false;
    pending = Flat_table.create ~capacity:64 ~dummy:no_pending ();
    flushed_lines = Flat_vec.create ~capacity:64 ();
    fence_sweep_visits = 0;
    fence_seq = 0;
    fence_hook = None;
    site = Site.unknown;
    hooks = [];
    next_hook_id = 0;
    poisoned;
    torn = Flat_table.create ~capacity:8 ~dummy:() ();
    stat_gen = -1;
    stat_cells = [];
  }

let create ?(cost = Cost.optane) ?(numa_nodes = 1) ~size () =
  if size <= 0 then invalid_arg "Device.create: non-positive size";
  if numa_nodes <= 0 then invalid_arg "Device.create: non-positive numa_nodes";
  let size = Units.round_up size cl in
  make ~cost ~numa_nodes
    ~poisoned:(Flat_table.create ~capacity:8 ~dummy:() ())
    ~size
    (Array.make ((size + chunk_mask) lsr chunk_bits) zero_chunk)

let size t = t.size

let node_of_offset t off =
  if t.numa_nodes = 1 then 0 else min (t.numa_nodes - 1) (off / t.node_stripe)

let cost t = t.cost

(* Overflow-safe: [off + len] may wrap, [t.size - off] cannot once
   [off >= 0].  Every range is validated before any charge or move. *)
let check_range t off len =
  if off < 0 || len < 0 || len > t.size - off then
    invalid_arg (Printf.sprintf "Device: range [%d,+%d) out of bounds (size %d)" off len t.size)

(* The caller's [src]/[dst] side of a byte move, checked the same way and
   also before any charge, so a short buffer leaves the clock and the
   pending lines untouched. *)
let check_buf blen boff len =
  if boff < 0 || len < 0 || len > blen - boff then
    invalid_arg (Printf.sprintf "Device: buffer [%d,+%d) out of bounds (length %d)" boff len blen)

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

let charge t (cpu : Cpu.t) ~off ~len ~write =
  if len > 0 then begin
    let per_cl = if write then t.cost.write_ns_per_cl else t.cost.read_ns_per_cl in
    let per_byte = if write then t.cost.write_ns_per_byte else t.cost.read_ns_per_byte in
    let lo = off / cl and hi = (off + len - 1) / cl in
    let extra = float_of_int (hi - lo) in
    let ns = per_cl +. (per_cl *. pipeline_factor *. extra) +. (per_byte *. float_of_int len) in
    let ns = ns *. remote_factor t cpu ~off ~write in
    Simclock.advance cpu.clock (int_of_float ns)
  end

(* The memoized per-site stat cells for the ambient site.  Capped: sites
   are module-level constants in practice, but a dynamically-created site
   must not grow the memo without bound — past the cap the uncached entry
   is returned and instruments resolve per call (the old behavior).  The
   search is a top-level function: a local closure over the site would
   be allocated on every access with stats on. *)
let rec find_cells t site = function
  | c :: rest -> if c.sc_site == site then c else find_cells t site rest
  | [] ->
      let c = { sc_site = site; sc_cells = Array.make (Array.length instruments) None } in
      if List.length t.stat_cells < 64 then t.stat_cells <- c :: t.stat_cells;
      c

let site_cells t =
  let gen = Stats.Registry.generation Stats.global in
  if gen <> t.stat_gen then begin
    t.stat_gen <- gen;
    t.stat_cells <- []
  end;
  find_cells t t.site t.stat_cells

let stat t instrument n =
  if Stats.enabled () then begin
    let c = site_cells t in
    let cell =
      match c.sc_cells.(instrument) with
      | Some r -> r
      | None ->
          let r =
            Stats.Counter.v
              ~labels:[ ("site", Site.to_string c.sc_site) ]
              instruments.(instrument)
          in
          c.sc_cells.(instrument) <- Some r;
          r
    in
    Stats.Counter.add cell n
  end

(* Event-stream instrumentation: every installed hook observes every
   charged access plus the protocol annotations, tagged with the ambient
   site and (for data movement) the accessing CPU — the race detector
   needs to see which simulated thread issued each store.  Hooks run in
   installation order.  Callers match [t.hooks] first and build the event
   (and the [Some cpu]) only when it is non-empty, so the common
   uninstrumented access allocates nothing.  The list is the snapshot
   taken at emit time: a hook that calls [remove_event_hook] — even on
   itself — replaces [t.hooks] with a new list, so every sibling
   installed at emit time still fires exactly once. *)
let dispatch t hooks cpu ev = List.iter (fun (_, h) -> h cpu t.site ev) hooks

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

let annotate t p = match t.hooks with [] -> () | hooks -> dispatch t hooks None (Protocol p)

(* ------------------------------------------------------------------ *)
(* The access paths.  Every entry point validates its range(s) first,
   then runs the shared prologue, its own byte move, and the shared
   epilogue:
     store: pending-line tracking, poison repair, charge | move | event, stat
     load:  poison check, charge                          | move | event, stat
   A copy is a load of its source and a store to its destination: both
   ranges are validated before either prologue, the read is charged
   before the write, and the Load event precedes the Store. *)

(* The byte moves: each walks the chunk pieces of a validated range
   with loop counters only, so no access allocates -- apart from a
   whole-chunk string store, whose memo probe and displaced chunk cost a
   few words per call. *)

let imin (a : int) b = if a <= b then a else b

(* Chunk [i], copied first (into a spare when there is one) unless
   this device owns it. *)
let writable t i =
  if not t.owned.(i) then begin
    let c =
      match t.spare with
      | s :: rest ->
          t.spare <- rest;
          Bytes.blit t.chunks.(i) 0 s 0 chunk_size;
          s
      | [] -> Bytes.copy t.chunks.(i)
    in
    t.chunks.(i) <- c;
    t.owned.(i) <- true
  end;
  t.chunks.(i)

let blit_in t ~src ~src_off ~off ~len =
  let pos = ref off and s = ref src_off and rem = ref len in
  while !rem > 0 do
    let o = !pos land chunk_mask in
    let n = imin !rem (chunk_size - o) in
    Bytes.blit src !s (writable t (!pos lsr chunk_bits)) o n;
    pos := !pos + n;
    s := !s + n;
    rem := !rem - n
  done

(* Chunk [i] becomes the shared chunk [u]; an owned chunk it displaces
   joins the spares. *)
let share t i u =
  let c = t.chunks.(i) in
  if c != u then begin
    if t.owned.(i) then begin
      t.owned.(i) <- false;
      t.spare <- c :: t.spare
    end;
    t.chunks.(i) <- u
  end

(* The byte code of a uniform non-empty string, or -1: one word
   comparison per 8 bytes, then the tail. *)
let uniform_code s =
  let n = String.length s in
  if n = 0 then -1
  else begin
    let c = String.unsafe_get s 0 in
    let w = Int64.mul (Int64.of_int (Char.code c)) 0x0101010101010101L in
    let i = ref 0 in
    while !i <= n - 8 && String.get_int64_ne s !i = w do
      i := !i + 8
    done;
    while !i < n && String.unsafe_get s !i = c do
      incr i
    done;
    if !i = n then Char.code c else -1
  end

(* [uniform_code s], scanning each distinct [s] once.  Slots are probed
   newest first, [k] steps back from the newest; a miss replaces the
   oldest. *)
let rec memo_find m s k =
  if k = memo_slots then begin
    let code = uniform_code s in
    let slot = (m.last + 1) mod memo_slots in
    Weak.set m.keys slot (Some s);
    m.codes.(slot) <- code;
    m.last <- slot;
    code
  end
  else
    let slot = (m.last - k + memo_slots) mod memo_slots in
    match Weak.get m.keys slot with
    | Some s' when s' == s -> m.codes.(slot)
    | _ -> memo_find m s (k + 1)

let memo_code t s =
  let m =
    match t.memo with
    | Some m -> m
    | None ->
        let m = { keys = Weak.create memo_slots; codes = Array.make memo_slots (-1); last = 0 } in
        t.memo <- Some m;
        m
  in
  memo_find m s 0

(* A piece that covers a whole chunk from a uniform string shares that
   byte's chunk instead of copying; the source's uniformity is looked up
   once per call, and only if some piece is whole. *)
let blit_string_in t ~src ~src_off ~off ~len =
  let pos = ref off and s = ref src_off and rem = ref len and code = ref (-2) in
  while !rem > 0 do
    let o = !pos land chunk_mask in
    let n = imin !rem (chunk_size - o) in
    let i = !pos lsr chunk_bits in
    if n = chunk_size && !code = -2 then code := memo_code t src;
    if n = chunk_size && !code >= 0 then share t i (uniform_chunk !code)
    else Bytes.blit_string src !s (writable t i) o n;
    pos := !pos + n;
    s := !s + n;
    rem := !rem - n
  done

let blit_out t ~off ~len ~dst ~dst_off =
  let pos = ref off and d = ref dst_off and rem = ref len in
  while !rem > 0 do
    let o = !pos land chunk_mask in
    let n = imin !rem (chunk_size - o) in
    Bytes.blit t.chunks.(!pos lsr chunk_bits) o dst !d n;
    pos := !pos + n;
    d := !d + n;
    rem := !rem - n
  done

let fill_in t ~off ~len c =
  let pos = ref off and rem = ref len in
  while !rem > 0 do
    let o = !pos land chunk_mask in
    let n = imin !rem (chunk_size - o) in
    Bytes.fill (writable t (!pos lsr chunk_bits)) o n c;
    pos := !pos + n;
    rem := !rem - n
  done

(* memmove semantics.  Each piece lies within one source and one
   destination chunk; when the destination overlaps the source from
   above, the pieces go last to first so none overwrites source bytes a
   later piece still reads. *)
let move t ~src ~dst ~len =
  if src < dst && dst < src + len then begin
    let rem = ref len in
    while !rem > 0 do
      let se = src + !rem and de = dst + !rem in
      let n = imin !rem (imin (((se - 1) land chunk_mask) + 1) (((de - 1) land chunk_mask) + 1)) in
      let d = writable t ((de - n) lsr chunk_bits) in
      Bytes.blit t.chunks.((se - n) lsr chunk_bits) ((se - n) land chunk_mask) d
        ((de - n) land chunk_mask) n;
      rem := !rem - n
    done
  end
  else begin
    let k = ref 0 in
    while !k < len do
      let so = (src + !k) land chunk_mask and do_ = (dst + !k) land chunk_mask in
      let n = imin (len - !k) (imin (chunk_size - so) (chunk_size - do_)) in
      let d = writable t ((dst + !k) lsr chunk_bits) in
      Bytes.blit t.chunks.((src + !k) lsr chunk_bits) so d do_ n;
      k := !k + n
    done
  end

let mark_flushed t p line =
  if not p.flushed then begin
    p.flushed <- true;
    Flat_vec.push t.flushed_lines line
  end

let track_store t off len ~nt =
  if t.tracking && len > 0 then begin
    let lo = off / cl and hi = (off + len - 1) / cl in
    for line = lo to hi do
      match Flat_table.find t.pending line with
      | Some p -> if nt then mark_flushed t p line else p.flushed <- false
      | None ->
          let old_bytes = Bytes.create cl in
          blit_out t ~off:(line * cl) ~len:cl ~dst:old_bytes ~dst_off:0;
          Flat_table.set t.pending line { old_bytes; flushed = nt };
          if nt then Flat_vec.push t.flushed_lines line
    done
  end

let store_begin t cpu ~off ~len ~nt =
  track_store t off len ~nt;
  clear_poison_on_store t off len;
  charge t cpu ~off ~len ~write:true

let store_end t cpu ~off ~len ~nt =
  (match t.hooks with
  | [] -> ()
  | hooks -> dispatch t hooks (Some cpu) (Store { off; len; nt }));
  stat t (if nt then i_nt_store else i_store) len

let load_begin t cpu ~off ~len =
  check_poison t off len;
  charge t cpu ~off ~len ~write:false

let load_end t cpu ~off ~len =
  (match t.hooks with [] -> () | hooks -> dispatch t hooks (Some cpu) (Load { off; len }));
  stat t i_load len

let store_bytes t cpu ~off ~src ~src_off ~len ~nt =
  check_range t off len;
  check_buf (Bytes.length src) src_off len;
  store_begin t cpu ~off ~len ~nt;
  blit_in t ~src ~src_off ~off ~len;
  store_end t cpu ~off ~len ~nt

let store_string t cpu ~off ~src ~src_off ~len ~nt =
  check_range t off len;
  check_buf (String.length src) src_off len;
  store_begin t cpu ~off ~len ~nt;
  blit_string_in t ~src ~src_off ~off ~len;
  store_end t cpu ~off ~len ~nt

let store_fill t cpu ~off ~len c ~nt =
  check_range t off len;
  store_begin t cpu ~off ~len ~nt;
  fill_in t ~off ~len c;
  store_end t cpu ~off ~len ~nt

let copy t cpu ~src ~dst ~len ~nt =
  check_range t src len;
  check_range t dst len;
  load_begin t cpu ~off:src ~len;
  store_begin t cpu ~off:dst ~len ~nt;
  move t ~src ~dst ~len;
  load_end t cpu ~off:src ~len;
  store_end t cpu ~off:dst ~len ~nt

let write t cpu ~off ~src ~src_off ~len = store_bytes t cpu ~off ~src ~src_off ~len ~nt:false

let write_string t cpu ~off ~src ~src_off ~len =
  store_string t cpu ~off ~src ~src_off ~len ~nt:false

let memset t cpu ~off ~len c = store_fill t cpu ~off ~len c ~nt:false
let copy_within t cpu ~src ~dst ~len = copy t cpu ~src ~dst ~len ~nt:false

(* Non-temporal stores: bypass the cache and become durable at the next
   fence without explicit clwb (the fast path PM file systems use for bulk
   data). *)
let write_nt t cpu ~off ~src ~src_off ~len = store_bytes t cpu ~off ~src ~src_off ~len ~nt:true
let write_string_nt t cpu ~off ~src ~src_off ~len =
  store_string t cpu ~off ~src ~src_off ~len ~nt:true

let memset_nt t cpu ~off ~len c = store_fill t cpu ~off ~len c ~nt:true
let copy_within_nt t cpu ~src ~dst ~len = copy t cpu ~src ~dst ~len ~nt:true

let write_u64 t cpu ~off v =
  check_range t off 8;
  store_begin t cpu ~off ~len:8 ~nt:false;
  let o = off land chunk_mask in
  if o <= chunk_size - 8 then Bytes.set_int64_le (writable t (off lsr chunk_bits)) o v
  else begin
    Bytes.set_int64_le t.word 0 v;
    blit_in t ~src:t.word ~src_off:0 ~off ~len:8
  end;
  store_end t cpu ~off ~len:8 ~nt:false

let read t cpu ~off ~len ~dst ~dst_off =
  check_range t off len;
  check_buf (Bytes.length dst) dst_off len;
  load_begin t cpu ~off ~len;
  blit_out t ~off ~len ~dst ~dst_off;
  load_end t cpu ~off ~len

let read_string t cpu ~off ~len =
  check_range t off len;
  load_begin t cpu ~off ~len;
  let b = Bytes.create len in
  blit_out t ~off ~len ~dst:b ~dst_off:0;
  let s = Bytes.unsafe_to_string b in
  load_end t cpu ~off ~len;
  s

let read_u64 t cpu ~off =
  check_range t off 8;
  load_begin t cpu ~off ~len:8;
  let o = off land chunk_mask in
  let v =
    if o <= chunk_size - 8 then Bytes.get_int64_le t.chunks.(off lsr chunk_bits) o
    else begin
      blit_out t ~off ~len:8 ~dst:t.word ~dst_off:0;
      Bytes.get_int64_le t.word 0
    end
  in
  load_end t cpu ~off ~len:8;
  v

let read_in_place t cpu ~off ~len f =
  check_range t off len;
  load_begin t cpu ~off ~len;
  load_end t cpu ~off ~len;
  let pos = ref off and rem = ref len in
  while !rem > 0 do
    let o = !pos land chunk_mask in
    let n = imin !rem (chunk_size - o) in
    f t.chunks.(!pos lsr chunk_bits) o n;
    pos := !pos + n;
    rem := !rem - n
  done

let touch_read t cpu ~off ~len =
  check_range t off len;
  load_begin t cpu ~off ~len;
  load_end t cpu ~off ~len

let peek t ~off ~len ~dst ~dst_off =
  check_range t off len;
  check_buf (Bytes.length dst) dst_off len;
  check_poison t off len;
  blit_out t ~off ~len ~dst ~dst_off

let flush t (cpu : Cpu.t) ~off ~len =
  check_range t off len;
  if len > 0 then begin
    let lo = off / cl and hi = (off + len - 1) / cl in
    let n_lines = hi - lo + 1 in
    Simclock.advance cpu.clock (int_of_float (t.cost.flush_ns *. float_of_int n_lines));
    if t.tracking then
      for line = lo to hi do
        match Flat_table.find t.pending line with Some p -> mark_flushed t p line | None -> ()
      done;
    (match t.hooks with [] -> () | hooks -> dispatch t hooks (Some cpu) (Flush { off; len }));
    stat t i_flush_lines n_lines
  end

let fence t (cpu : Cpu.t) =
  Simclock.advance cpu.clock (int_of_float t.cost.fence_ns);
  t.fence_seq <- t.fence_seq + 1;
  (match t.fence_hook with Some hook -> hook t.fence_seq | None -> ());
  (match t.hooks with [] -> () | hooks -> dispatch t hooks (Some cpu) Fence);
  stat t i_fences 1;
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
   per kind in the global stats registry. *)

let fault_kind_name = function
  | Bit_flip _ -> "bit_flip"
  | Torn_word _ -> "torn_word"
  | Poison_line _ -> "poison_line"

let inject t fault =
  (match fault with
  | Bit_flip { off; bit } ->
      check_range t off 1;
      if bit < 0 || bit > 7 then invalid_arg "Device.inject: bit outside 0..7";
      let c = writable t (off lsr chunk_bits) and o = off land chunk_mask in
      Bytes.set c o (Char.chr (Char.code (Bytes.get c o) lxor (1 lsl bit)))
  | Torn_word { off } ->
      check_range t off 8;
      Flat_table.set t.torn (off land lnot 7) ()
  | Poison_line { off } ->
      check_range t off 1;
      Flat_table.set t.poisoned (off / cl) ());
  if Stats.enabled () then
    Stats.counter_add ~labels:[ ("kind", fault_kind_name fault) ] "fault.injected" 1

let poisoned_lines t = Flat_table.keys_sorted t.poisoned

let crash_image t ~persisted =
  if not t.tracking then invalid_arg "Device.crash_image: tracking disabled";
  (* The image shares every chunk with [t]; a chunk reachable from two
     devices is owned by neither, so whichever stores to it first copies
     it.  Media faults survive a crash. *)
  let img =
    make ~cost:t.cost ~numa_nodes:t.numa_nodes ~poisoned:(Flat_table.copy t.poisoned)
      ~size:t.size (Array.copy t.chunks)
  in
  Array.fill t.owned 0 (Array.length t.owned) false;
  Flat_table.keys_sorted t.pending
  |> List.iter (fun line ->
         match Flat_table.find t.pending line with
         | Some p when not (persisted line) ->
             blit_in img ~src:p.old_bytes ~src_off:0 ~off:(line * cl) ~len:cl
         | _ -> ());
  (* Torn words compose with the surviving-line choice: even when the
     containing line is chosen as persisted, the registered 8-byte word
     reverts to its pre-store bytes (intra-line tearing — the store of
     that word never reached the media).  Words on lines with no pending
     store are already durable and cannot tear. *)
  Flat_table.keys_sorted t.torn
  |> List.iter (fun off ->
         match Flat_table.find t.pending (off / cl) with
         | Some p -> blit_in img ~src:p.old_bytes ~src_off:(off mod cl) ~off ~len:8
         | None -> ());
  img

let fence_seq t = t.fence_seq

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
  Array.iteri
    (fun i c -> output oc c 0 (imin chunk_size (t.size - (i * chunk_size))))
    t.chunks;
  close_out oc

let load_file ?cost ?numa_nodes path =
  let ic = open_in_bin path in
  let size = in_channel_length ic in
  let t = create ?cost ?numa_nodes ~size () in
  Array.iteri
    (fun i _ ->
      let n = imin chunk_size (size - (i * chunk_size)) in
      if n > 0 then really_input ic (writable t i) 0 n)
    t.chunks;
  close_in ic;
  t
