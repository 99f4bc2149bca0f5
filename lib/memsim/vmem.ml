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

type t = {
  dev : Device.t;
  cfg : Mmu_config.t;
  tlb_4k : Lru_sets.t;
  tlb_2m : Lru_sets.t;
  tlb_l2 : Lru_sets.t;
  llc : Lru_sets.t;
  pt_4k : (int, int) Hashtbl.t; (* vpn -> phys page base *)
  pt_2m : (int, int) Hashtbl.t; (* 2M chunk index -> phys 2M base *)
  counters : Counters.t;
  mutable next_va : int;
  mutable next_region : int;
}

let base = Units.base_page
let huge = Units.huge_page
let cl = Units.cacheline

let create ?(config = Mmu_config.default) dev =
  {
    dev;
    cfg = config;
    tlb_4k = Lru_sets.create ~sets:config.l1_tlb_4k_sets ~ways:config.l1_tlb_4k_ways;
    tlb_2m = Lru_sets.create ~sets:config.l1_tlb_2m_sets ~ways:config.l1_tlb_2m_ways;
    tlb_l2 = Lru_sets.create ~sets:config.l2_tlb_sets ~ways:config.l2_tlb_ways;
    llc = Lru_sets.create ~sets:config.llc_sets ~ways:config.llc_ways;
    pt_4k = Hashtbl.create 4096;
    pt_2m = Hashtbl.create 256;
    counters = Counters.create ();
    next_va = huge;
    next_region = 0;
  }

let counters t = t.counters
let config t = t.cfg

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

let region_len r = r.len

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
    Counters.incr t.counters "mm.llc_hits";
    charge t cpu t.cfg.llc_hit_ns
  end
  else begin
    Counters.incr t.counters "mm.llc_misses";
    charge t cpu t.cfg.dram_access_ns
  end

(* TLB lookup; on miss, walk the page table (fetch the PTE line through the
   LLC) and install the translation. *)
let tlb_access t cpu ~is_huge ~key4k ~key2m =
  let l1 = if is_huge then t.tlb_2m else t.tlb_4k in
  let l1_key = if is_huge then key2m else key4k in
  if Lru_sets.access l1 l1_key then Counters.incr t.counters "mm.tlb_hits"
  else begin
    let l2_key = if is_huge then l2_key_2m key2m else l2_key_4k key4k in
    if Lru_sets.access t.tlb_l2 l2_key then begin
      Counters.incr t.counters "mm.tlb_hits";
      charge t cpu t.cfg.l2_tlb_hit_ns
    end
    else begin
      Counters.incr t.counters "mm.tlb_misses";
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
  let phys =
    match install_result with
    | Huge phys ->
        if not (Units.is_aligned phys huge) then
          invalid_arg "Vmem: file system returned an unaligned hugepage extent";
        let chunk = (r.base_va + chunk_file) / huge in
        Hashtbl.replace t.pt_2m chunk phys;
        r.huge_chunks <- r.huge_chunks + 1;
        Counters.incr t.counters "mm.huge_faults";
        Counters.incr t.counters "mm.page_faults";
        charge t cpu t.cfg.fault_huge_ns;
        if r.zero_on_fault then
          Device.with_site t.dev site_fault (fun () ->
              Device.memset t.dev cpu ~off:phys ~len:huge '\000';
              Device.persist t.dev cpu ~off:phys ~len:huge);
        phys + (va - (r.base_va + chunk_file)) / base * base
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
        let vpn = (r.base_va + page_file) / base in
        Hashtbl.replace t.pt_4k vpn phys;
        r.base_pages <- r.base_pages + 1;
        Counters.incr t.counters "mm.page_faults";
        charge t cpu t.cfg.fault_base_ns;
        if r.zero_on_fault then
          Device.with_site t.dev site_fault (fun () ->
              Device.memset t.dev cpu ~off:phys ~len:base '\000';
              Device.persist t.dev cpu ~off:phys ~len:base);
        phys
    | Sigbus -> raise (Sigbus_fault (Printf.sprintf "fault at file offset %d" file_off))
  in
  Counters.add t.counters "mm.fault_ns" (Simclock.now cpu.Cpu.clock - t0);
  phys

(* Translate [va]; returns the physical address and the number of bytes
   until the end of the containing page (the caller may access that much
   without re-translating). *)
let translate t cpu r va =
  let chunk = va / huge in
  match Hashtbl.find_opt t.pt_2m chunk with
  | Some phys_base ->
      tlb_access t cpu ~is_huge:true ~key4k:0 ~key2m:chunk;
      let in_chunk = va - (chunk * huge) in
      (phys_base + in_chunk, huge - in_chunk)
  | None -> (
      let vpn = va / base in
      match Hashtbl.find_opt t.pt_4k vpn with
      | Some phys_page ->
          tlb_access t cpu ~is_huge:false ~key4k:vpn ~key2m:0;
          let in_page = va - (vpn * base) in
          (phys_page + in_page, base - in_page)
      | None ->
          let phys = handle_fault t cpu r va in
          (* Re-translate now that the mapping exists (charges the TLB
             fill for the new entry). *)
          let chunk_hit = Hashtbl.mem t.pt_2m chunk in
          if chunk_hit then begin
            tlb_access t cpu ~is_huge:true ~key4k:0 ~key2m:chunk;
            let in_chunk = va - (chunk * huge) in
            (Hashtbl.find t.pt_2m chunk + in_chunk, huge - in_chunk)
          end
          else begin
            tlb_access t cpu ~is_huge:false ~key4k:vpn ~key2m:0;
            let in_page = va - (vpn * base) in
            ignore phys;
            (Hashtbl.find t.pt_4k vpn + in_page, base - in_page)
          end)

let check_region r ~off ~len =
  if not r.live then invalid_arg "Vmem: access to unmapped region";
  if off < 0 || len < 0 || off + len > r.len then
    invalid_arg
      (Printf.sprintf "Vmem: access [%d,%d) outside region of %d bytes" off (off + len)
         r.len)

(* Data read through the LLC: per cache line, a hit charges llc_hit_ns and
   skips the device; a miss reads PM.  Contiguous missing lines are
   batched into one device time-charge to keep bulk scans cheap; the data
   itself is copied once at the end (cost already accounted). *)
let read_lines t cpu ~phys ~len ~dst =
  let first_line = phys / cl and last_line = (phys + len - 1) / cl in
  let charge_run run_start run_end =
    if run_end >= run_start then begin
      let off = max phys (run_start * cl) in
      let stop = min (phys + len) ((run_end + 1) * cl) in
      Device.touch_read t.dev cpu ~off ~len:(stop - off)
    end
  in
  let run_start = ref 0 and run_end = ref (-1) in
  for line = first_line to last_line do
    if Lru_sets.access t.llc line then begin
      Counters.incr t.counters "mm.llc_hits";
      charge t cpu t.cfg.llc_hit_ns;
      charge_run !run_start !run_end;
      run_start := line + 1;
      run_end := line
    end
    else begin
      Counters.incr t.counters "mm.llc_misses";
      if !run_end < !run_start then run_start := line;
      run_end := line
    end
  done;
  charge_run !run_start !run_end;
  match dst with
  | Some (buf, buf_off) -> Device.peek t.dev ~off:phys ~len ~dst:buf ~dst_off:buf_off
  | None -> ()

let rec access t cpu r ~off ~len ~f =
  if len > 0 then begin
    let phys, avail = translate t cpu r (r.base_va + off) in
    let n = min len avail in
    f ~phys ~n ~off;
    if n < len then access t cpu r ~off:(off + n) ~len:(len - n) ~f
  end

let read_into t cpu r ~off ~dst ~dst_off ~len =
  check_region r ~off ~len;
  access t cpu r ~off ~len ~f:(fun ~phys ~n ~off:cur ->
      read_lines t cpu ~phys ~len:n ~dst:(Some (dst, dst_off + cur - off)))

let read t cpu r ~off ~len =
  check_region r ~off ~len;
  access t cpu r ~off ~len ~f:(fun ~phys ~n ~off:_ ->
      read_lines t cpu ~phys ~len:n ~dst:None)

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
  let phys, avail = translate t cpu r (r.base_va + off) in
  if avail >= 8 then begin
    read_lines t cpu ~phys ~len:8 ~dst:None;
    Device.read_u64 t.dev cpu ~off:phys
  end
  else begin
    let buf = Bytes.create 8 in
    read_into t cpu r ~off ~dst:buf ~dst_off:0 ~len:8;
    Bytes.get_int64_le buf 0
  end

let write_u64 t cpu r ~off v =
  check_region r ~off ~len:8;
  let phys, avail = translate t cpu r (r.base_va + off) in
  if avail >= 8 then
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
    let _, avail = translate t cpu r (r.base_va + !off) in
    off := !off + avail
  done

let munmap t r =
  if r.live then begin
    r.live <- false;
    let va = ref r.base_va in
    let stop = r.base_va + Units.round_up r.len base in
    while !va < stop do
      let chunk = !va / huge in
      if Units.is_aligned !va huge && Hashtbl.mem t.pt_2m chunk then begin
        Hashtbl.remove t.pt_2m chunk;
        va := !va + huge
      end
      else begin
        Hashtbl.remove t.pt_4k (!va / base);
        va := !va + base
      end
    done;
    Lru_sets.clear t.tlb_4k;
    Lru_sets.clear t.tlb_2m;
    Lru_sets.clear t.tlb_l2
  end

let huge_mapped_bytes _t r = r.huge_chunks * huge
let base_mapped_pages _t r = r.base_pages

let drop_tlb t =
  Lru_sets.clear t.tlb_4k;
  Lru_sets.clear t.tlb_2m;
  Lru_sets.clear t.tlb_l2

let drop_llc t = Lru_sets.clear t.llc
