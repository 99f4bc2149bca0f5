(* determinism: forbid ambient nondeterminism in the sources.

   Seeded replay underpins racecheck (schedule seeds), faultcheck
   (campaign seeds) and the golden-image test: a result that cannot be
   reproduced from its printed seed is a result we cannot debug.  Four
   sources of ambient nondeterminism are banned outside an explicit
   allowlist:

   - wall-clock reads ([Unix.gettimeofday]/[Unix.time]/[Sys.time]);
   - the unseeded global [Random] state ([Random.self_init],
     [Random.int], ...) — [Random.State] with an explicit seed and the
     project's own splitmix64 {!Repro_util.Rng} are the sanctioned
     sources;
   - the polymorphic structural hash ([Hashtbl.hash] and friends),
     whose value is an implementation detail of the runtime;
   - hash-order traversals ([Hashtbl.fold]/[iter]/[to_seq], and the same
     functions of a [*_hashtbl] functor instance such as the inode
     layer's [Ino_hashtbl]): bucket order varies with insertion history,
     so any result built from it is traversal-ordered.  Two shapes are
     exempt: traversals whose result is immediately sorted
     ([... |> List.sort cmp]), and key-insensitive callbacks
     [(fun _ v -> ...)] — the convention for commutative per-value
     effects (resetting counters, closing descriptors).

   Additionally, inside the hot-path scope [lib/core/]/[lib/rbtree/]/
   [lib/util/], polymorphic [=]/[<>] against a variant constructor and
   the bare polymorphic [compare] are flagged: they cost an indirect
   call per node on the extent-map paths and silently compare abstract
   representations (the flat substrate of DESIGN §14).  [lib/util/] is in
   scope because the flat substrate (Flat_table/Flat_vec) lives there:
   its probe sequences must come from explicit int hashing
   (multiplicative mixing), never the runtime's polymorphic hash, and
   its comparisons from monomorphic [Int.compare]. *)

let rule = "determinism"
let low = String.lowercase_ascii

let starts p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p
let in_scope (f : Source.file) = f.kind = Source.Impl
let poly_scope path =
  starts "lib/core/" path || starts "lib/rbtree/" path || starts "lib/util/" path

let wall_clock comps =
  match List.rev comps with
  | fn :: m :: _ when m = "Unix" && List.mem fn [ "gettimeofday"; "time"; "times" ] -> true
  | fn :: m :: _ when m = "Sys" && fn = "time" -> true
  | _ -> false

let global_random comps =
  match List.rev comps with fn :: m :: _ -> m = "Random" && fn <> "" | _ -> false

let poly_hash comps =
  match List.rev comps with
  | fn :: m :: _ -> low m = "hashtbl" && List.mem fn [ "hash"; "hash_param"; "seeded_hash" ]
  | _ -> false

let hashtbl_module m =
  let m = low m in
  m = "hashtbl" || Filename.check_suffix m "_hashtbl"

let hash_order comps =
  match List.rev comps with
  | fn :: m :: _ ->
      hashtbl_module m && List.mem fn [ "fold"; "iter"; "to_seq"; "to_seq_keys"; "to_seq_values" ]
  | _ -> false

let sorter comps =
  match List.rev comps with
  | fn :: m :: _ -> m = "List" && List.mem fn [ "sort"; "sort_uniq"; "stable_sort"; "fast_sort" ]
  | _ -> false

(* [(fun _ v -> ...)]: the callback never looks at the key. *)
let wildcard_callback args =
  List.exists
    (fun (l, (a : Parsetree.expression)) ->
      l = Asttypes.Nolabel
      && match a.pexp_desc with Pexp_fun (_, _, { ppat_desc = Ppat_any; _ }, _) -> true | _ -> false)
    args

let nullary_constructor (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_construct ({ txt; _ }, None) -> (
      match Longident.last txt with "()" | "true" | "false" -> None | c -> Some c)
  | _ -> None

let poly_eq comps =
  match List.rev comps with
  | fn :: rest -> (fn = "=" || fn = "<>") && (rest = [] || rest = [ "Stdlib" ])
  | [] -> false

let bare_compare comps = comps = [ "compare" ] || comps = [ "Stdlib"; "compare" ]

let check_file (f : Source.file) diags =
  let env = Resolve.env_of_file f in
  (* Pass 1: mark hash-order traversals that feed straight into a sort. *)
  let exempt = Hashtbl.create 8 in
  let open Ast_iterator in
  let mark it e =
    (match Resolve.calls env e with
    | Some (comps, args) when sorter comps ->
        let inner _ (e' : Parsetree.expression) =
          (match Resolve.calls env e' with
          | Some (comps', _) when hash_order comps' -> Hashtbl.replace exempt e'.pexp_loc ()
          | _ -> ());
          default_iterator.expr it e'
        in
        let sub = { default_iterator with expr = inner } in
        List.iter (fun (_, a) -> sub.expr sub a) args
    | _ -> ());
    default_iterator.expr it e
  in
  let it1 = { default_iterator with expr = mark } in
  it1.structure it1 f.impl;
  (* Pass 2: report. *)
  let add d = diags := d :: !diags in
  let expr it (e : Parsetree.expression) =
    let loc = e.pexp_loc in
    (* Only genuine applications: [Resolve.calls] also views a bare ident
       as a zero-argument call, which would re-flag the callee ident
       inside an already-exempted application. *)
    (match (e.pexp_desc, Resolve.calls env e) with
    | Pexp_apply _, Some (comps, args) ->
        let name = String.concat "." comps in
        if wall_clock comps then
          add
            (Diag.v ~loc ~rule
               ~hint:
                 "derive timing from the seeded Rng or a logical clock so runs replay from \
                  their seed; allowlist operator-facing uses with a reason"
               "wall-clock read %s" name)
        else if global_random comps then
          add
            (Diag.v ~loc ~rule
               ~hint:
                 "use Repro_util.Rng (seeded splitmix64) or Random.State with an explicit \
                  seed; the ambient Random state is shared and unseeded"
               "global Random state (%s)" name)
        else if poly_hash comps then
          add
            (Diag.v ~loc ~rule
               ~hint:"hash explicitly (e.g. Crc32c over the serialised key)"
               "%s depends on the runtime's polymorphic hash" name)
        else if hash_order comps && not (Hashtbl.mem exempt loc) && not (wildcard_callback args)
        then
          add
            (Diag.v ~loc ~rule
               ~hint:
                 "sort the traversal's result (|> List.sort cmp), iterate a deterministic \
                  structure, or make the callback key-insensitive (fun _ v -> ...)"
               "%s observes nondeterministic hash order" name)
        else if poly_scope f.path && poly_eq comps then
          List.iter
            (fun (_, a) ->
              match nullary_constructor a with
              | Some c ->
                  add
                    (Diag.v ~loc ~rule
                       ~hint:
                         "match on the constructor (or use a monomorphic helper): polymorphic \
                          equality is an indirect call per comparison on the hot paths"
                       "polymorphic %s against constructor %s"
                       (List.nth comps (List.length comps - 1))
                       c)
              | None -> ())
            args
    | _ -> ());
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } when poly_scope f.path && bare_compare (Resolve.resolve env txt) ->
        add
          (Diag.v ~loc ~rule
             ~hint:"use Int.compare/String.compare or a per-type compare function"
             "bare polymorphic compare")
    | _ -> ());
    default_iterator.expr it e
  in
  let it2 = { default_iterator with expr } in
  it2.structure it2 f.impl

let check files =
  let diags = ref [] in
  List.iter (fun f -> if in_scope f then check_file f diags) files;
  Diag.normalize !diags
