(** Rule [error-discipline]: handlers that can silently swallow
    [Media_error]-rooted failures ([Types.Error (EIO, _)]) or read-only
    degradation ([EROFS]) in the durability-bearing layers.

    Flags, in exception position (try/with cases and
    [match ... with exception p ->] cases):

    - catch-all patterns ([_] or a variable) whose body does not
      re-raise — these eat EIO/EROFS along with the error the author
      meant to ignore;
    - [Types.Error] patterns whose errno component is undiscriminated
      ([Types.Error _], [Types.Error (_, _)] or a variable) with no
      guard and no re-raise;
    - [ignore]d calls to [check_invariants] (the repo's
      [(unit, string) result] self-check API) — discarding the [Error]
      side defeats the check.

    Cases with a guard, or whose body contains a [raise], are exempt:
    discrimination is happening, just not in the pattern. *)

val check : Source.file list -> Diag.t list
