open Repro_vfs

type op =
  | Mkdir of string
  | Create of string
  | Write of string * int * string
  | Append of string * string
  | Rename of string * string
  | Unlink of string
  | Rmdir of string
  | Fallocate of string * int * int
  | Ftruncate of string * int

type workload = { w_name : string; setup : op list; test : op list }

let apply (Fs_intf.Handle ((module F), fs)) cpu op =
  match op with
  | Mkdir p -> F.mkdir fs cpu p
  | Create p ->
      let fd = F.create fs cpu p in
      F.close fs cpu fd
  | Write (p, off, data) ->
      let fd = F.openf fs cpu p Types.o_rdwr in
      ignore (F.pwrite fs cpu fd ~off ~src:data);
      F.fsync fs cpu fd;
      F.close fs cpu fd
  | Append (p, data) ->
      let fd = F.openf fs cpu p Types.o_rdwr in
      ignore (F.append fs cpu fd ~src:data);
      F.fsync fs cpu fd;
      F.close fs cpu fd
  | Rename (a, b) -> F.rename fs cpu ~old_path:a ~new_path:b
  | Unlink p -> F.unlink fs cpu p
  | Rmdir p -> F.rmdir fs cpu p
  | Fallocate (p, off, len) ->
      let fd = F.openf fs cpu p Types.o_rdwr in
      F.fallocate fs cpu fd ~off ~len;
      F.close fs cpu fd
  | Ftruncate (p, n) ->
      let fd = F.openf fs cpu p Types.o_rdwr in
      F.ftruncate fs cpu fd n;
      F.close fs cpu fd

(* Canonical namespace: directories A and B, files foo and bar. *)
let base_setup =
  [ Mkdir "/A"; Mkdir "/B"; Create "/A/foo"; Create "/A/bar"; Append ("/A/foo", String.make 3000 'x') ]

let data = String.make 1500 'y'

let singles =
  [
    ("mkdir", Mkdir "/A/sub");
    ("create", Create "/A/new");
    ("write-overwrite", Write ("/A/foo", 100, data));
    ("write-extend", Write ("/A/foo", 2500, data));
    ("write-hole", Write ("/A/bar", 8192, data));
    ("append", Append ("/A/foo", data));
    ("append-empty", Append ("/A/bar", data));
    ("rename-samedir", Rename ("/A/foo", "/A/foo2"));
    ("rename-crossdir", Rename ("/A/foo", "/B/foo"));
    ("rename-replace", Rename ("/A/foo", "/A/bar"));
    ("unlink", Unlink "/A/foo");
    ("rmdir", Rmdir "/B");
    ("fallocate", Fallocate ("/A/bar", 0, 65536));
    ("fallocate-huge", Fallocate ("/A/bar", 0, 4 * 1024 * 1024));
    ("ftruncate-shrink", Ftruncate ("/A/foo", 100));
    ("ftruncate-zero", Ftruncate ("/A/foo", 0));
    ("ftruncate-grow", Ftruncate ("/A/bar", 100000));
  ]

let seq1 =
  List.map (fun (n, op) -> { w_name = "seq1-" ^ n; setup = base_setup; test = [ op ] }) singles

(* ACE-style dependent pairs: the second op observes the first's effect. *)
let seq2 =
  let pairs =
    [
      ("create-write", [ Create "/A/new"; Append ("/A/new", data) ]);
      ("create-rename", [ Create "/A/new"; Rename ("/A/new", "/B/new") ]);
      ("create-unlink", [ Create "/A/new"; Unlink "/A/new" ]);
      ("write-rename", [ Append ("/A/foo", data); Rename ("/A/foo", "/B/foo") ]);
      ("write-unlink", [ Append ("/A/foo", data); Unlink "/A/foo" ]);
      ("rename-create", [ Rename ("/A/foo", "/A/foo2"); Create "/A/foo" ]);
      ("unlink-create", [ Unlink "/A/foo"; Create "/A/foo" ]);
      ("mkdir-create", [ Mkdir "/A/sub"; Create "/A/sub/f" ]);
      ("truncate-append", [ Ftruncate ("/A/foo", 0); Append ("/A/foo", data) ]);
      ("falloc-write", [ Fallocate ("/A/bar", 0, 65536); Write ("/A/bar", 4096, data) ]);
      ("overwrite-overwrite", [ Write ("/A/foo", 0, data); Write ("/A/foo", 1000, data) ]);
      ("rename-rename", [ Rename ("/A/foo", "/B/tmp"); Rename ("/B/tmp", "/A/bar") ]);
    ]
  in
  List.map (fun (n, ops) -> { w_name = "seq2-" ^ n; setup = base_setup; test = ops }) pairs

let seq3 =
  let triples =
    [
      ( "create-write-rename",
        [ Create "/A/new"; Append ("/A/new", data); Rename ("/A/new", "/B/new") ] );
      ( "log-rotate",
        [ Append ("/A/foo", data); Rename ("/A/foo", "/A/foo.old"); Create "/A/foo" ] );
      ( "replace-via-tmp",
        [ Create "/A/tmp"; Append ("/A/tmp", data); Rename ("/A/tmp", "/A/foo") ] );
      ( "mkdir-create-unlink",
        [ Mkdir "/A/sub"; Create "/A/sub/f"; Unlink "/A/sub/f" ] );
      ( "grow-shrink-grow",
        [ Append ("/A/foo", data); Ftruncate ("/A/foo", 64); Append ("/A/foo", data) ] );
    ]
  in
  List.map (fun (n, ops) -> { w_name = "seq3-" ^ n; setup = base_setup; test = ops }) triples

let all = seq1 @ seq2 @ seq3
