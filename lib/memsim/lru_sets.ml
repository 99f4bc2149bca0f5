(* Each set is a small array scanned linearly; position encodes recency
   (slot 0 = MRU).  Associativities are small (<= 16) so the scan is
   cheap.  Every operation is a plain loop over the set's slots: no
   closure, no allocation, since the LLC model calls [access] once per
   simulated cache line. *)

type t = { sets : int; ways : int; mask : int; slots : int array (* -1 = empty *) }

let create ~sets ~ways =
  if sets <= 0 || sets land (sets - 1) <> 0 then
    invalid_arg "Lru_sets.create: sets must be a positive power of two";
  if ways <= 0 then invalid_arg "Lru_sets.create: non-positive ways";
  { sets; ways; mask = sets - 1; slots = Array.make (sets * ways) (-1) }

(* Multiplicative hash to spread line indexes across sets. *)
let set_of t key = (key * 0x9E3779B1) lsr 7 land t.mask

(* Position of [key] in the set starting at [base], or [ways] when absent.
   [base + ways] never exceeds the slot array (see [set_of]). *)
let find (slots : int array) ~base ~ways (key : int) =
  let i = ref 0 in
  while !i < ways && Array.unsafe_get slots (base + !i) <> key do
    incr i
  done;
  !i

let access t key =
  let slots = t.slots and ways = t.ways in
  let base = set_of t key * ways in
  let pos = find slots ~base ~ways key in
  let hit = pos < ways in
  (* A miss evicts the last position, even when an invalidated hole sits
     earlier in the set: the hole only moves down one slot. *)
  let last = if hit then pos else ways - 1 in
  (* Shift entries down; install key as MRU. *)
  for i = base + last downto base + 1 do
    Array.unsafe_set slots i (Array.unsafe_get slots (i - 1))
  done;
  Array.unsafe_set slots base key;
  hit

let probe t key =
  let base = set_of t key * t.ways in
  find t.slots ~base ~ways:t.ways key < t.ways

let invalidate t key =
  let base = set_of t key * t.ways in
  for i = base to base + t.ways - 1 do
    if t.slots.(i) = key then t.slots.(i) <- -1
  done

let clear t = Array.fill t.slots 0 (Array.length t.slots) (-1)
