open Repro_util
module Tbl = Hashtbl.Make (String)

type policy = Dram_rbtree | Pm_linear_scan of float

type entry = { ino : int; slot : int }

type t = { policy : policy; tbl : entry Tbl.t }

(* [Hashtbl] doubles its buckets once it holds more than twice as many
   bindings, so [entries] names added one by one end in the smallest
   power of two (16 at least) of buckets that is at least half of them.
   Creating the table at that size skips the rehashes on the way. *)
let create ?(entries = 0) policy = { policy; tbl = Tbl.create ((entries + 1) / 2) }

let dram_level_ns = 4.

(* [!dram_ns.(n)]: the charge of one lookup in an [n]-entry index, 0 until
   first computed.  The float formula is kept (and only memoized) so every
   size, powers of two included, rounds as it always has. *)
let dram_ns = ref [||]

let dram_lookup_ns n =
  if n >= Array.length !dram_ns then begin
    let grown = Array.make (max (n + 1) (2 * Array.length !dram_ns)) 0 in
    Array.blit !dram_ns 0 grown 0 (Array.length !dram_ns);
    dram_ns := grown
  end;
  let memo = !dram_ns in
  if memo.(n) = 0 then begin
    (* log2(n) levels of pointer chasing in DRAM. *)
    let levels = int_of_float (ceil (log (float_of_int n) /. log 2.)) in
    memo.(n) <- int_of_float (dram_level_ns *. float_of_int levels)
  end;
  memo.(n)

let charge_lookup t (cpu : Cpu.t) =
  match t.policy with
  | Dram_rbtree -> Simclock.advance cpu.clock (dram_lookup_ns (max 2 (Tbl.length t.tbl)))
  | Pm_linear_scan cost_ns ->
      let scanned = max 1 (Tbl.length t.tbl / 2) in
      Simclock.advance cpu.clock (int_of_float (cost_ns *. float_of_int scanned))

let add t cpu ~name ~ino ~slot =
  charge_lookup t cpu;
  Tbl.replace t.tbl name { ino; slot }

let remove t cpu name =
  charge_lookup t cpu;
  Tbl.remove t.tbl name

let lookup t cpu name =
  charge_lookup t cpu;
  match Tbl.find_opt t.tbl name with Some e -> Some (e.ino, e.slot) | None -> None

let mem t cpu name = lookup t cpu name <> None

let entries t =
  Tbl.fold (fun name e acc -> (name, e.ino) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let size t = Tbl.length t.tbl
