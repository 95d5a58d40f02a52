(** Static consistency audit of certification query plans.

    Validates a {!Plan.t} before (or instead of) execution: every unit
    must reference an existing task; every variable referenced by a
    unit's objective terms or bound overrides must exist in its task's
    model; override and affine input ranges must be non-empty;
    replayed units must point at a signed (deduplicable) task.  Never
    raises. *)

val check : ?name:string -> Plan.t -> Audit_core.Diag.t list
(** [check ?name plan] returns all findings, [Error]-severity for
    violations the executor cannot survive, [Warn] for integer-variable
    overrides, [Info] notes summarising dedup replays per task. *)
