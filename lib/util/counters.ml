type t = (string, int ref) Hashtbl.t

let create () : t = Hashtbl.create 32

let cell t name =
  match Hashtbl.find_opt t name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t name r;
      r

let get t name = match Hashtbl.find_opt t name with Some r -> !r | None -> 0

let reset t = Hashtbl.iter (fun _ r -> r := 0) t

let snapshot t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let diff ~before ~after =
  let module M = Map.Make (String) in
  let to_map l = List.fold_left (fun m (k, v) -> M.add k v m) M.empty l in
  let b = to_map before and a = to_map after in
  let names = M.union (fun _ x _ -> Some x) (M.map (fun _ -> 0) b) (M.map (fun _ -> 0) a) in
  M.bindings names
  |> List.map (fun (k, _) ->
         (k, (match M.find_opt k a with Some v -> v | None -> 0)
             - (match M.find_opt k b with Some v -> v | None -> 0)))
