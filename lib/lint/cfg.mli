(** Forward dataflow over OCaml parse trees.

    Structured syntax doubles as the control-flow graph: each construct's
    evaluation rule walks the corresponding CFG edges — branch and merge
    for [if]/[match], exceptional edges into [try] handlers, a
    join-until-fixpoint back-edge for loops — threading a client abstract
    state forward.  The client supplies the domain (join/equal) and the
    only two transfer functions the sources need beyond control flow:
    function application and mutable-field assignment.

    Exceptional flow: every client-flagged raise point contributes its
    state to the nearest enclosing [try]'s handler entry (joined); a
    handler is assumed to catch everything its body raises.  An outcome
    edge that is [None] is unreachable and kills the continuation. *)

type 'st outcome = {
  normal : 'st option;  (** state on the fall-through edge *)
  exc : 'st option;  (** join of states at raise points inside *)
}

type 'st hooks = {
  join : kind:string -> loc:Location.t -> 'st -> 'st -> 'st;
  equal : 'st -> 'st -> bool;
  apply :
    eval:('st -> Parsetree.expression -> 'st outcome) ->
    'st ->
    Parsetree.expression ->
    'st outcome option;
  setfield : 'st -> Longident.t -> 'st option;
}

val join_outcome :
  'st hooks -> kind:string -> loc:Location.t -> 'st outcome -> 'st outcome -> 'st outcome

val eval : 'st hooks -> 'st -> Parsetree.expression -> 'st outcome
(** Run the analysis over one expression from an entry state. *)
