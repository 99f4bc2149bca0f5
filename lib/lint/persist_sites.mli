(** Rule [persist-site]: every persistence-effecting device call
    ([Device.write]/[write_nt]/[memset]/[copy_within]/[write_u64]/
    [flush]/[fence]/[persist] and variants) outside [lib/pmem/] must be
    lexically inside the thunk of a [Device.with_site] annotation.

    The sanitizer ({!Repro_sanitizer}) and faultcheck both attribute
    their findings to the ambient {!Repro_pmem.Site} — an unannotated
    store surfaces as ["unknown:unknown"] in reports, which makes
    durability bugs unattributable.  This rule turns the labelling
    convention into an invariant. *)

val check : Source.file list -> Diag.t list
