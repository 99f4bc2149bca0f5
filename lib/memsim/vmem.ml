open Repro_util
module Device = Repro_pmem.Device
module Site = Repro_pmem.Site

(* Durability-lint sites: user-space DAX stores and fault-time zeroing
   flow through here, so they carry their own attribution labels. *)
let site_fault = Site.v "vmem" "fault_zero"
let site_store = Site.v "vmem" "store"
let site_persist = Site.v "vmem" "persist"

type fault_result = Huge of int | Base of int | Sigbus

type backing = Cpu.t -> file_off:int -> huge_ok:bool -> fault_result

type region = {
  id : int;
  base_va : int;
  len : int;
  backing : backing;
  huge_ok : bool;
  zero_on_fault : bool;
  mutable live : bool;
  mutable huge_chunks : int;
  mutable base_pages : int;
}

(* A counter of the space's set, bumped through its [Counters.cell].  The
   cell is resolved on the first bump, not at [create], so a snapshot
   names exactly the counters that have moved; cells stay valid across
   [Counters.reset]. *)
type cell = { set : Counters.t; name : string; mutable cell : int ref }

let unresolved = ref 0 (* placeholder of every cell not yet bumped; never written *)
let cell set name = { set; name; cell = unresolved }

let bump c n =
  if c.cell == unresolved then c.cell <- Counters.cell c.set c.name;
  c.cell := !(c.cell) + n

type t = {
  dev : Device.t;
  cfg : Mmu_config.t;
  tlb_4k : Lru_sets.t;
  tlb_2m : Lru_sets.t;
  tlb_l2 : Lru_sets.t;
  llc : Lru_sets.t;
  pt_4k : int Flat_table.t; (* vpn -> phys page base *)
  pt_2m : int Flat_table.t; (* 2M chunk index -> phys 2M base *)
  counters : Counters.t;
  llc_hits : cell;
  llc_misses : cell;
  tlb_hits : cell;
  tlb_misses : cell;
  page_faults : cell;
  huge_faults : cell;
  fault_ns : cell;
  mutable avail : int; (* bytes to the end of the page [translate] last resolved *)
  mutable next_va : int;
  mutable next_region : int;
}

let base = Units.base_page
let huge = Units.huge_page
let cl = Units.cacheline

let create ?(config = Mmu_config.default) dev =
  let counters = Counters.create () in
  {
    dev;
    cfg = config;
    tlb_4k = Lru_sets.create ~sets:config.l1_tlb_4k_sets ~ways:config.l1_tlb_4k_ways;
    tlb_2m = Lru_sets.create ~sets:config.l1_tlb_2m_sets ~ways:config.l1_tlb_2m_ways;
    tlb_l2 = Lru_sets.create ~sets:config.l2_tlb_sets ~ways:config.l2_tlb_ways;
    llc = Lru_sets.create ~sets:config.llc_sets ~ways:config.llc_ways;
    pt_4k = Flat_table.create ~capacity:4096 ~dummy:0 ();
    pt_2m = Flat_table.create ~capacity:256 ~dummy:0 ();
    counters;
    llc_hits = cell counters "mm.llc_hits";
    llc_misses = cell counters "mm.llc_misses";
    tlb_hits = cell counters "mm.tlb_hits";
    tlb_misses = cell counters "mm.tlb_misses";
    page_faults = cell counters "mm.page_faults";
    huge_faults = cell counters "mm.huge_faults";
    fault_ns = cell counters "mm.fault_ns";
    avail = 0;
    next_va = huge;
    next_region = 0;
  }

let counters t = t.counters

let mmap t ~len ~backing ?(huge_ok = true) ?(zero_on_fault = false) () =
  if len <= 0 then invalid_arg "Vmem.mmap: non-positive length";
  let base_va = t.next_va in
  t.next_va <- t.next_va + Units.round_up len huge + huge;
  let id = t.next_region in
  t.next_region <- t.next_region + 1;
  {
    id;
    base_va;
    len;
    backing;
    huge_ok;
    zero_on_fault;
    live = true;
    huge_chunks = 0;
    base_pages = 0;
  }

(* TLB key spaces: 4K entries keyed by vpn, 2M entries by chunk index.  The
   shared L2 uses distinct tag bits so the two sizes do not alias. *)
let l2_key_4k vpn = vpn lor (1 lsl 58)
let l2_key_2m chunk = chunk lor (2 lsl 58)

(* Page-table entry cache lines: 8 entries of 8 bytes per 64B line.  They
   compete for LLC capacity with data lines — the §2.4 effect.  Upper
   walk levels use coarser, level-tagged lines (one L2-table line covers
   2MB of address space, one L3 line 1GB). *)
let pte_line_4k vpn = (vpn lsr 3) lor (1 lsl 59)
let pte_line_2m chunk = (chunk lsr 3) lor (2 lsl 59)
let pmd_line_4k vpn = (vpn lsr 12) lor (3 lsl 59)
let pud_line vpn = (vpn lsr 21) lor (4 lsl 59)

let charge _t (cpu : Cpu.t) ns = Simclock.advance cpu.clock (int_of_float ns)

(* LLC access for a page-table line: returns nothing, charges hit or DRAM
   fill time. *)
let pte_fetch t cpu line =
  if Lru_sets.access t.llc line then begin
    bump t.llc_hits 1;
    charge t cpu t.cfg.llc_hit_ns
  end
  else begin
    bump t.llc_misses 1;
    charge t cpu t.cfg.dram_access_ns
  end

(* TLB lookup; on miss, walk the page table (fetch the PTE line through the
   LLC) and install the translation. *)
let tlb_access t cpu ~is_huge ~key4k ~key2m =
  let l1 = if is_huge then t.tlb_2m else t.tlb_4k in
  let l1_key = if is_huge then key2m else key4k in
  if Lru_sets.access l1 l1_key then bump t.tlb_hits 1
  else begin
    let l2_key = if is_huge then l2_key_2m key2m else l2_key_4k key4k in
    if Lru_sets.access t.tlb_l2 l2_key then begin
      bump t.tlb_hits 1;
      charge t cpu t.cfg.l2_tlb_hit_ns
    end
    else begin
      bump t.tlb_misses 1;
      charge t cpu t.cfg.walk_base_ns;
      (* Multi-level walk: 4KB pages chase PUD -> PMD -> PTE lines, 2MB
         pages stop at the PMD.  Upper-level lines cover wide ranges and
         usually hit the LLC; leaf PTE lines are the polluters. *)
      if is_huge then begin
        pte_fetch t cpu (pud_line (key2m lsl 9));
        pte_fetch t cpu (pte_line_2m key2m)
      end
      else begin
        pte_fetch t cpu (pud_line key4k);
        pte_fetch t cpu (pmd_line_4k key4k);
        pte_fetch t cpu (pte_line_4k key4k)
      end
    end
  end

exception Sigbus_fault of string

let handle_fault t cpu r va =
  let file_off = va - r.base_va in
  let t0 = Simclock.now cpu.Cpu.clock in
  let chunk_file = Units.round_down file_off huge in
  let huge_possible = r.huge_ok && chunk_file + huge <= r.len in
  let install_result =
    if huge_possible then r.backing cpu ~file_off:chunk_file ~huge_ok:true
    else r.backing cpu ~file_off:(Units.round_down file_off base) ~huge_ok:false
  in
  (match install_result with
    | Huge phys ->
        if phys < 0 || not (Units.is_aligned phys huge) then
          invalid_arg "Vmem: file system returned an unaligned hugepage extent";
        let chunk = (r.base_va + chunk_file) / huge in
        Flat_table.set t.pt_2m chunk phys;
        r.huge_chunks <- r.huge_chunks + 1;
        bump t.huge_faults 1;
        bump t.page_faults 1;
        charge t cpu t.cfg.fault_huge_ns;
        if r.zero_on_fault then
          Device.with_site t.dev site_fault (fun () ->
              Device.memset t.dev cpu ~off:phys ~len:huge '\000';
              Device.persist t.dev cpu ~off:phys ~len:huge)
    | Base phys ->
        (* The FS may answer Base even when asked about a whole chunk
           (unaligned backing); install just the faulting 4K page.  When
           the answer covers the chunk start rather than the faulting
           page, re-ask for the precise page. *)
        let page_file = Units.round_down file_off base in
        let phys =
          if huge_possible && page_file <> chunk_file then
            match r.backing cpu ~file_off:page_file ~huge_ok:false with
            | Base p -> p
            | Huge p -> p + (page_file - chunk_file)
            | Sigbus -> raise (Sigbus_fault "no backing for page")
          else phys
        in
        if phys < 0 then invalid_arg "Vmem: file system returned a negative page address";
        let vpn = (r.base_va + page_file) / base in
        Flat_table.set t.pt_4k vpn phys;
        r.base_pages <- r.base_pages + 1;
        bump t.page_faults 1;
        charge t cpu t.cfg.fault_base_ns;
        if r.zero_on_fault then
          Device.with_site t.dev site_fault (fun () ->
              Device.memset t.dev cpu ~off:phys ~len:base '\000';
              Device.persist t.dev cpu ~off:phys ~len:base)
    | Sigbus -> raise (Sigbus_fault (Printf.sprintf "fault at file offset %d" file_off)));
  bump t.fault_ns (Simclock.now cpu.Cpu.clock - t0)

(* Translate [va]: returns the physical address and leaves in [t.avail]
   the number of bytes until the end of the containing page (the caller
   may access that much without re-translating).  Page-table entries are
   physical bases, never negative, so -1 reads as unmapped. *)
let rec translate t cpu r va =
  let chunk = va / huge in
  let phys_base = Flat_table.get t.pt_2m chunk ~default:(-1) in
  if phys_base >= 0 then begin
    tlb_access t cpu ~is_huge:true ~key4k:0 ~key2m:chunk;
    let in_chunk = va - (chunk * huge) in
    t.avail <- huge - in_chunk;
    phys_base + in_chunk
  end
  else begin
    let vpn = va / base in
    let phys_page = Flat_table.get t.pt_4k vpn ~default:(-1) in
    if phys_page >= 0 then begin
      tlb_access t cpu ~is_huge:false ~key4k:vpn ~key2m:0;
      let in_page = va - (vpn * base) in
      t.avail <- base - in_page;
      phys_page + in_page
    end
    else begin
      handle_fault t cpu r va;
      (* Re-translate now that the mapping exists (charges the TLB fill
         for the new entry). *)
      translate t cpu r va
    end
  end

let check_region r ~off ~len =
  if not r.live then invalid_arg "Vmem: access to unmapped region";
  if off < 0 || len < 0 || off + len > r.len then
    invalid_arg
      (Printf.sprintf "Vmem: access [%d,%d) outside region of %d bytes" off (off + len)
         r.len)

(* Charge the device read of the missed lines [run_start, run_end] (none
   when the run is empty), clipped to the accessed range [phys, phys+len). *)
let charge_run t cpu ~phys ~len run_start run_end =
  if run_end >= run_start then begin
    let off = max phys (run_start * cl) in
    let stop = min (phys + len) ((run_end + 1) * cl) in
    Device.touch_read t.dev cpu ~off ~len:(stop - off)
  end

(* Data read through the LLC: per cache line, a hit charges llc_hit_ns and
   skips the device; a miss reads PM.  Contiguous missing lines are
   batched into one device time-charge to keep bulk scans cheap.  Charges
   only: a caller wanting the data copies it once afterwards (cost
   already accounted). *)
let read_lines t cpu ~phys ~len =
  let first_line = phys / cl and last_line = (phys + len - 1) / cl in
  let run_start = ref 0 and run_end = ref (-1) in
  for line = first_line to last_line do
    if Lru_sets.access t.llc line then begin
      bump t.llc_hits 1;
      charge t cpu t.cfg.llc_hit_ns;
      charge_run t cpu ~phys ~len !run_start !run_end;
      run_start := line + 1;
      run_end := line
    end
    else begin
      bump t.llc_misses 1;
      if !run_end < !run_start then run_start := line;
      run_end := line
    end
  done;
  charge_run t cpu ~phys ~len !run_start !run_end

(* Walk [off, off+len) of the region one translation at a time, handing
   each physically contiguous piece to [f]. *)
let rec access t cpu r ~off ~len ~f =
  if len > 0 then begin
    let phys = translate t cpu r (r.base_va + off) in
    let n = min len t.avail in
    f ~phys ~n ~off;
    if n < len then access t cpu r ~off:(off + n) ~len:(len - n) ~f
  end

let read_into t cpu r ~off ~dst ~dst_off ~len =
  check_region r ~off ~len;
  access t cpu r ~off ~len ~f:(fun ~phys ~n ~off:cur ->
      read_lines t cpu ~phys ~len:n;
      Device.peek t.dev ~off:phys ~len:n ~dst ~dst_off:(dst_off + cur - off))

let read t cpu r ~off ~len =
  check_region r ~off ~len;
  access t cpu r ~off ~len ~f:(fun ~phys ~n ~off:_ -> read_lines t cpu ~phys ~len:n)

let write_bytes t cpu r ~off ~src ~src_off ~len =
  check_region r ~off ~len;
  access t cpu r ~off ~len ~f:(fun ~phys ~n ~off:cur ->
      Device.with_site t.dev site_store (fun () ->
          Device.write_nt t.dev cpu ~off:phys ~src ~src_off:(src_off + cur - off) ~len:n))

let write t cpu r ~off ~src =
  let len = String.length src in
  check_region r ~off ~len;
  access t cpu r ~off ~len ~f:(fun ~phys ~n ~off:cur ->
      Device.with_site t.dev site_store (fun () ->
          Device.write_string_nt t.dev cpu ~off:phys ~src ~src_off:(cur - off) ~len:n))

let fill t cpu r ~off ~len c =
  check_region r ~off ~len;
  access t cpu r ~off ~len ~f:(fun ~phys ~n ~off:_ ->
      Device.with_site t.dev site_store (fun () -> Device.memset_nt t.dev cpu ~off:phys ~len:n c))

let read_u64 t cpu r ~off =
  check_region r ~off ~len:8;
  let phys = translate t cpu r (r.base_va + off) in
  if t.avail >= 8 then begin
    read_lines t cpu ~phys ~len:8;
    Device.read_u64 t.dev cpu ~off:phys
  end
  else begin
    let buf = Bytes.create 8 in
    read_into t cpu r ~off ~dst:buf ~dst_off:0 ~len:8;
    Bytes.get_int64_le buf 0
  end

let write_u64 t cpu r ~off v =
  check_region r ~off ~len:8;
  let phys = translate t cpu r (r.base_va + off) in
  if t.avail >= 8 then
    Device.with_site t.dev site_store (fun () -> Device.write_u64 t.dev cpu ~off:phys v)
  else begin
    let buf = Bytes.create 8 in
    Bytes.set_int64_le buf 0 v;
    write_bytes t cpu r ~off ~src:buf ~src_off:0 ~len:8
  end

let persist t cpu r ~off ~len =
  check_region r ~off ~len;
  Device.with_site t.dev site_persist (fun () ->
      access t cpu r ~off ~len ~f:(fun ~phys ~n ~off:_ ->
          Device.flush t.dev cpu ~off:phys ~len:n);
      Device.fence t.dev cpu)

let prefault t cpu r =
  let off = ref 0 in
  while !off < r.len do
    ignore (translate t cpu r (r.base_va + !off) : int);
    off := !off + t.avail
  done

let munmap t r =
  if r.live then begin
    r.live <- false;
    let va = ref r.base_va in
    let stop = r.base_va + Units.round_up r.len base in
    while !va < stop do
      let chunk = !va / huge in
      if Units.is_aligned !va huge && Flat_table.mem t.pt_2m chunk then begin
        Flat_table.remove t.pt_2m chunk;
        va := !va + huge
      end
      else begin
        Flat_table.remove t.pt_4k (!va / base);
        va := !va + base
      end
    done;
    Lru_sets.clear t.tlb_4k;
    Lru_sets.clear t.tlb_2m;
    Lru_sets.clear t.tlb_l2
  end

let huge_mapped_bytes _t r = r.huge_chunks * huge
let base_mapped_pages _t r = r.base_pages

