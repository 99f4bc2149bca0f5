let cacheline = 64
let kib = 1024
let mib = 1024 * kib
let gib = 1024 * mib
let base_page = 4 * kib
let huge_page = 2 * mib

let round_up v quantum =
  if quantum <= 0 then invalid_arg "Units.round_up";
  (v + quantum - 1) / quantum * quantum

let round_down v quantum =
  if quantum <= 0 then invalid_arg "Units.round_down";
  v / quantum * quantum

let is_aligned v quantum = quantum > 0 && v mod quantum = 0
