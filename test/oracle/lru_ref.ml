type t = { ways : int; mutable slots : int list }

let empty ways = List.init ways (fun _ -> -1)

let create ~ways =
  if ways <= 0 then invalid_arg "Lru_ref.create: non-positive ways";
  { ways; slots = empty ways }

let access t key =
  let hit = List.mem key t.slots in
  let rest =
    if hit then List.filter (fun k -> k <> key) t.slots
    else List.filteri (fun i _ -> i < t.ways - 1) t.slots
  in
  t.slots <- key :: rest;
  hit

let probe t key = List.mem key t.slots
let invalidate t key = t.slots <- List.map (fun k -> if k = key then -1 else k) t.slots
let clear t = t.slots <- empty t.ways
let slots t = t.slots
