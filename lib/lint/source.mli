(** Source loader: parse every [.ml]/[.mli] under the scanned roots into
    real {!Parsetree} ASTs (via [compiler-libs.common]), so rules see
    resolved syntax instead of substrings — comments and string literals
    can no longer produce false matches, and every finding carries an
    exact [file:line:col].

    Paths are normalised to use ['/'] and are kept workspace-relative when
    the roots are relative, so allowlists and ownership rules match on
    stable names like ["lib/core/txn.ml"]. *)

type kind = Impl  (** a [.ml] file *) | Intf  (** a [.mli] file *)

type file = {
  path : string;  (** normalised path, e.g. ["lib/core/txn.ml"] *)
  kind : kind;
  stem : string;  (** module stem, lowercase basename: ["txn"] *)
  impl : Parsetree.structure;  (** [[]] for interfaces *)
  intf : Parsetree.signature;  (** [[]] for implementations *)
  line_count : int;
}

val parse_string : path:string -> string -> (file, Diag.t) result
(** Parse source text as the contents of [path] (suffix decides
    implementation vs interface).  Parse failures come back as a
    ["parse"]-rule diagnostic carrying the syntax-error location. *)

val load_roots : string list -> file list * Diag.t list
(** Recursively collect and parse every [.ml]/[.mli] under the given
    directories (files may also be given directly), skipping [_build] and
    dot-directories.  Returns parsed files sorted by path, plus a
    ["parse"] diagnostic per unparseable file. *)
