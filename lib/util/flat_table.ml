(* Fixed-stride open-addressing hash table over non-negative int keys.

   The DRAM-index replacement of DESIGN §14: a power-of-two slot
   array probed linearly, in the style of a chess engine's transposition
   table — no boxing per binding, no bucket lists, no rehash-on-read.
   Keys hash with a multiplicative (Fibonacci) mix, never the runtime's
   polymorphic [Hashtbl.hash], so probe sequences are identical on every
   run and the determinism lint stays clean.

   Slots hold the key directly in an int array; two negative sentinels
   mark never-used ([empty_key]) and deleted ([tomb_key]) slots, which is
   why keys must be >= 0 (cache-line indices, physical offsets and inode
   numbers all are).  Values live in a parallel array seeded with a
   caller-supplied [dummy] so the structure stays monomorphic and flat.

   Deletions leave tombstones so probe chains stay intact; the table
   rehashes (doubling only when the live count warrants it) once
   live+tombstone occupancy crosses 3/4, which bounds probe lengths.
   [probe_steps] exposes the cumulative probe work for the @perf-smoke
   operation-count budgets. *)

let empty_key = -1
let tomb_key = -2

type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;
  mutable mask : int; (* capacity - 1; capacity is a power of two *)
  mutable live : int;
  mutable used : int; (* live + tombstones *)
  dummy : 'a;
  mutable probes : int; (* cumulative probe steps across all operations *)
  mutable ins : int; (* insert slot found by the last [locate] *)
}

(* Multiplicative hashing: one odd 62-bit constant (2^61 * golden ratio,
   forced odd) spreads consecutive keys across the table; the xor-shift
   folds high bits into the low bits the mask keeps.  Deterministic by
   construction — plain int arithmetic, wrapping on overflow. *)
let gold = 0x2545F4914F6CDD1D

let hash k =
  let h = k * gold in
  h lxor (h lsr 29)

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 8

let create ?(capacity = 16) ~dummy () =
  let cap = next_pow2 (max 8 capacity) in
  {
    keys = Array.make cap empty_key;
    vals = Array.make cap dummy;
    mask = cap - 1;
    live = 0;
    used = 0;
    dummy;
    probes = 0;
    ins = -1;
  }

let length t = t.live
let capacity t = t.mask + 1
let probe_steps t = t.probes

let check_key k = if k < 0 then invalid_arg "Flat_table: negative key"

(* Slot of [k], or -1 when absent.  Also leaves in [t.ins] the slot where
   [k] would be inserted (first tombstone on the probe path if any, else
   the empty slot that ended the probe), so a lookup returns no tuple. *)
let locate t k =
  let keys = t.keys and mask = t.mask in
  let i = ref (hash k land mask) in
  let ins = ref (-1) in
  let found = ref (-1) in
  let continue = ref true in
  while !continue do
    t.probes <- t.probes + 1;
    let kk = Array.unsafe_get keys !i in
    if kk = k then begin
      found := !i;
      continue := false
    end
    else if kk = empty_key then begin
      if !ins < 0 then ins := !i;
      continue := false
    end
    else begin
      if kk = tomb_key && !ins < 0 then ins := !i;
      i := (!i + 1) land mask
    end
  done;
  t.ins <- !ins;
  !found

let rehash t new_cap =
  let old_keys = t.keys and old_vals = t.vals in
  t.keys <- Array.make new_cap empty_key;
  t.vals <- Array.make new_cap t.dummy;
  t.mask <- new_cap - 1;
  t.used <- t.live;
  (* Reinsert in slot order: deterministic given the operation history. *)
  Array.iteri
    (fun i k ->
      if k >= 0 then begin
        let j = ref (hash k land t.mask) in
        while Array.unsafe_get t.keys !j <> empty_key do
          j := (!j + 1) land t.mask
        done;
        t.keys.(!j) <- k;
        t.vals.(!j) <- old_vals.(i)
      end)
    old_keys

let maybe_grow t =
  let cap = t.mask + 1 in
  if (t.used + 1) * 4 > cap * 3 then
    (* Double only when genuinely full of live entries; otherwise rehash
       in place to shed tombstones. *)
    rehash t (if t.live * 2 >= cap then cap * 2 else cap)

let mem t k =
  check_key k;
  locate t k >= 0

let find t k =
  check_key k;
  let slot = locate t k in
  if slot >= 0 then Some t.vals.(slot) else None

let get t k ~default =
  check_key k;
  let slot = locate t k in
  if slot >= 0 then t.vals.(slot) else default

let set t k v =
  check_key k;
  let slot = locate t k in
  if slot >= 0 then t.vals.(slot) <- v
  else begin
    maybe_grow t;
    (* Growth may have moved everything: relocate the insert slot. *)
    let slot = locate t k in
    assert (slot < 0);
    let ins = t.ins in
    if t.keys.(ins) = empty_key then t.used <- t.used + 1;
    t.keys.(ins) <- k;
    t.vals.(ins) <- v;
    t.live <- t.live + 1
  end

let remove t k =
  check_key k;
  let slot = locate t k in
  if slot >= 0 then begin
    t.keys.(slot) <- tomb_key;
    t.vals.(slot) <- t.dummy;
    t.live <- t.live - 1
  end

let copy t =
  {
    keys = Array.copy t.keys;
    vals = Array.copy t.vals;
    mask = t.mask;
    live = t.live;
    used = t.used;
    dummy = t.dummy;
    probes = 0;
    ins = -1;
  }

let clear t =
  Array.fill t.keys 0 (Array.length t.keys) empty_key;
  Array.fill t.vals 0 (Array.length t.vals) t.dummy;
  t.live <- 0;
  t.used <- 0

(* Slot order: deterministic (the probe function is), but not sorted —
   callers needing a canonical order use [keys_sorted]. *)
let iter t f =
  let keys = t.keys and vals = t.vals in
  for i = 0 to Array.length keys - 1 do
    let k = Array.unsafe_get keys i in
    if k >= 0 then f k (Array.unsafe_get vals i)
  done

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun k v -> acc := f !acc k v);
  !acc

let keys_sorted t =
  fold t ~init:[] ~f:(fun acc k _ -> k :: acc) |> List.sort Int.compare

let check_invariants t =
  let cap = Array.length t.keys in
  if cap <> t.mask + 1 || cap land (cap - 1) <> 0 then Error "capacity not a power of two"
  else if Array.length t.vals <> cap then Error "key/value array length mismatch"
  else begin
    let live = ref 0 and used = ref 0 in
    let dup = ref None in
    Array.iteri
      (fun _ k ->
        if k >= 0 then begin
          incr live;
          incr used
        end
        else if k = tomb_key then incr used
        else if k <> empty_key then dup := Some "slot holds an invalid sentinel")
      t.keys;
    (* Every live key must be findable via its own probe chain. *)
    Array.iter (fun k -> if k >= 0 && locate t k < 0 then dup := Some "unreachable key") t.keys;
    match !dup with
    | Some m -> Error m
    | None ->
        if !live <> t.live then Error "live count mismatch"
        else if !used <> t.used then Error "occupancy count mismatch"
        else if t.used * 4 > cap * 3 then Error "load factor above 3/4"
        else Ok ()
  end
