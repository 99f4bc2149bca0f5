open Repro_util
module M = Repro_rbtree.Ordmap.String_map

type entry = { ino : int; slot : int }

type t = { policy : Repro_vfs.Dir_index.policy; map : entry M.t }

let create policy = { policy; map = M.create () }

let dram_level_ns = 4.

let charge_lookup t (cpu : Cpu.t) =
  match t.policy with
  | Dram_rbtree ->
      (* log2(n) levels of pointer chasing in DRAM. *)
      let n = max 2 (M.size t.map) in
      let levels = int_of_float (ceil (log (float_of_int n) /. log 2.)) in
      Simclock.advance cpu.clock (int_of_float (dram_level_ns *. float_of_int levels))
  | Pm_linear_scan cost_ns ->
      let scanned = max 1 (M.size t.map / 2) in
      Simclock.advance cpu.clock (int_of_float (cost_ns *. float_of_int scanned))

let add t cpu ~name ~ino ~slot =
  charge_lookup t cpu;
  M.insert t.map name { ino; slot }

let remove t cpu name =
  charge_lookup t cpu;
  M.remove t.map name

let lookup t cpu name =
  charge_lookup t cpu;
  match M.find t.map name with Some e -> Some (e.ino, e.slot) | None -> None

let mem t cpu name = lookup t cpu name <> None

let entries t =
  List.rev (M.fold t.map ~init:[] ~f:(fun acc name e -> (name, e.ino) :: acc))

let size t = M.size t.map
