(** Global opt-in audit switch and finding sink.

    Audit mode is off by default.  It is turned on by the [GRC_AUDIT]
    environment variable (any value except ["0"] or the empty string,
    read once at start-up by {!Lp.Simplex}) or programmatically with
    {!set}.  The switch is {!Lp.Simplex.audit_mode} itself, so enabling
    it also makes every warm-started simplex solve cross-check itself
    against a cold solve.

    Passes stay pure (they return diagnostics); callers hand findings to
    {!report}, which prints them and fails loudly on Error-level
    findings. *)

val enabled : unit -> bool

val set : bool -> unit

val with_enabled : bool -> (unit -> 'a) -> 'a
(** Run a thunk with the switch forced, restoring it afterwards (also
    on exception). *)

val report : Diag.t list -> unit
(** No-op on [[]].  Otherwise: print every finding to stderr and raise
    {!Diag.Audit_failure} if any finding is Error-level. *)
