(* A site labels the code location responsible for a PM access: the layer
   (library) plus the operation within it.  Sites are threaded ambiently
   through {!Device.with_site} so low-level stores need no extra
   parameters, and the innermost annotation wins — a journal entry written
   on behalf of a metadata update reports as "journal.entry", not
   "core.meta". *)

type t = { layer : string; op : string }

let v layer op = { layer; op }
let unknown = { layer = "?"; op = "?" }
let to_string t = t.layer ^ "." ^ t.op
