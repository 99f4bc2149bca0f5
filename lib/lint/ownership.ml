open Parsetree

let rule_id = "ownership"

type rule = { target : string; allowed : string list; why : string }

let rules =
  [
    {
      target = "Undo_journal";
      allowed =
        [ "lib/journal/"; "lib/core/txn.ml"; "lib/core/txn.mli"; "lib/core/layout.ml";
          "lib/baselines/basefs.ml"; "lib/baselines/basefs.mli"; "lib/race/scenarios.ml";
          "lib/fsck/" ];
      why = "undo journalling is a txn/layout-layer concern";
    };
    {
      target = "Redo_journal";
      allowed = [ "lib/journal/"; "lib/core/txn.ml"; "lib/core/txn.mli"; "lib/core/layout.ml";
                  "lib/baselines/basefs.ml"; "lib/baselines/basefs.mli" ];
      why = "redo journalling is a txn/layout-layer concern";
    };
    {
      target = "Dir_index";
      allowed = [ "lib/vfs/"; "lib/core/namespace.ml"; "lib/core/namespace.mli";
                  "lib/core/inode.ml"; "lib/core/inode.mli"; "lib/baselines/" ];
      why = "directory indexes belong to the namespace/inode layers";
    };
    {
      target = "Fd_table";
      allowed = [ "lib/vfs/"; "lib/core/fs.ml"; "lib/baselines/" ];
      why = "fd tables belong to the fs facade";
    };
    {
      target = "Fault";
      allowed =
        [ "lib/pmem/"; "lib/crashcheck/faultcheck.ml"; "lib/crashcheck/faultcheck.mli";
          "lib/crashcheck/torturecheck.ml"; "lib/crashcheck/torturecheck.mli" ];
      why = "media faults are injected only by the device layer and the faultcheck harness";
    };
    {
      target = "Crc32c";
      allowed = [ "lib/util/"; "lib/journal/"; "lib/core/codec.ml"; "lib/core/inode.ml" ];
      why = "checksums live in the codec/journal/inode metadata layers";
    };
    {
      target = "Counters";
      allowed = [ "lib/util/"; "lib/memsim/"; "lib/workloads/"; "lib/experiments/" ];
      why = "Counters is Vmem's per-mapping-space set; file systems count through Stats";
    };
  ]

let path_allowed path allowed =
  List.exists
    (fun a ->
      if String.length a > 0 && a.[String.length a - 1] = '/' then
        String.length path >= String.length a && String.sub path 0 (String.length a) = a
      else path = a)
    allowed

(* Call [f lid loc] on every Longident occurrence that can name a module
   member: expressions, patterns, types, module expressions/types (which
   also covers [open] and [module X = ...] aliases). *)
let iter_idents f file =
  let open Ast_iterator in
  let on d loc = f d loc in
  let expr it (e : expression) =
    (match e.pexp_desc with
    | Pexp_ident l | Pexp_construct (l, _) | Pexp_field (_, l) | Pexp_setfield (_, l, _)
    | Pexp_new l ->
        on l.txt l.loc
    | Pexp_record (fields, _) -> List.iter (fun (l, _) -> on l.Location.txt l.loc) fields
    | _ -> ());
    default_iterator.expr it e
  in
  let pat it (p : pattern) =
    (match p.ppat_desc with
    | Ppat_construct (l, _) | Ppat_type l -> on l.txt l.loc
    | Ppat_record (fields, _) -> List.iter (fun (l, _) -> on l.Location.txt l.loc) fields
    | _ -> ());
    default_iterator.pat it p
  in
  let typ it (t : core_type) =
    (match t.ptyp_desc with
    | Ptyp_constr (l, _) | Ptyp_class (l, _) -> on l.txt l.loc
    | _ -> ());
    default_iterator.typ it t
  in
  let module_expr it (m : module_expr) =
    (match m.pmod_desc with Pmod_ident l -> on l.txt l.loc | _ -> ());
    default_iterator.module_expr it m
  in
  let module_type it (m : module_type) =
    (match m.pmty_desc with Pmty_ident l | Pmty_alias l -> on l.txt l.loc | _ -> ());
    default_iterator.module_type it m
  in
  let it = { default_iterator with expr; pat; typ; module_expr; module_type } in
  it.structure it file.Source.impl;
  it.signature it file.Source.intf

let check_file (f : Source.file) diags =
  let env = Resolve.env_of_file f in
  iter_idents
    (fun lid loc ->
      List.iter
        (fun r ->
          if Resolve.mentions env lid r.target && not (path_allowed f.path r.allowed) then
            diags :=
              Diag.v ~loc ~rule:rule_id
                ~hint:
                  (Printf.sprintf "%s; go through the owning layer's public API instead" r.why)
                "%s referenced outside its owning layers" r.target
            :: !diags)
        rules)
    f

let facade_check (f : Source.file) diags =
  if f.path = "lib/core/fs.ml" && f.line_count > 600 then
    diags :=
      Diag.at ~file:f.path ~line:f.line_count ~col:0 ~rule:rule_id
        ~hint:"fs.ml is a facade; move logic into namespace/datapath/inode modules"
        (Printf.sprintf "lib/core/fs.ml has %d lines (facade budget is 600)" f.line_count)
      :: !diags

let check files =
  let diags = ref [] in
  List.iter
    (fun f ->
      check_file f diags;
      facade_check f diags)
    files;
  List.sort_uniq Diag.compare !diags
