(** Bound-query engines.

    An engine answers min/max queries over one encoded model.  LP
    models are served by a warm-started {!Lp.Simplex} session (min
    queries hot-start from the preceding max query's basis);
    integer-marked models fall through to {!Milp} branch & bound.
    Every caller of the certification stack — the certifier's
    {!Executor}, the encoding variants, the local certifier, the
    Reluplex-style search — queries bounds through this module, so
    query counting (the [engine.lp_queries] and [engine.milp_queries]
    metrics) and audit-mode certificate checks live in exactly one
    place. *)

type t = Lp.Model.dir -> (Lp.Model.var * float) list -> float option
(** Optimise the sparse objective; [None] on infeasible, unbounded or
    iteration-limited solves. *)

val session_solution :
  name:string ->
  model:Lp.Model.t ->
  Lp.Simplex.session ->
  objective:Lp.Model.dir * (Lp.Model.var * float) list ->
  Lp.Simplex.solution
(** One audited session solve returning the full solution (variable
    values included) — for callers that need the optimiser's point,
    e.g. incumbent extraction in the Reluplex-style search.  [name]
    labels audit diagnostics. *)

val of_session : name:string -> model:Lp.Model.t -> Lp.Simplex.session -> t

val of_milp :
  options:Milp.options -> ?bounds:float array * float array -> Lp.Model.t -> t
(** [bounds] overrides the model's structural root bounds (see
    {!Milp.solve}); used to replay a deduplicated integer cone under an
    instance's input intervals. *)
