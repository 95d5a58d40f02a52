(** Mixed-integer linear programming by branch & bound.

    Solves a {!Lp.Model.t} whose variables may carry the [integer] mark.
    LP relaxations are solved with {!Lp.Simplex}; the tree is driven by
    the shared {!Search} core (best-bound-first frontier, bound-delta
    nodes, one warm-started solver session).  Branching is pluggable via
    {!Search.Strategy}: the default picks the most fractional integer;
    [Dual_guided] weights candidates by their |dual| column sensitivity.

    Certification note: for a maximisation query, [bound] is always a
    sound upper bound on the true optimum, even when the search stops
    early on a node or time limit. *)

type status =
  | Optimal          (** incumbent proven optimal within tolerances *)
  | Infeasible
  | Unbounded        (** LP relaxation unbounded at the root *)
  | Limit            (** node/time limit hit; [bound] still valid *)
  | Lp_failure       (** an LP relaxation failed to solve; results unreliable *)

type result = {
  status : status;
  obj : float;        (** incumbent objective (model direction); [nan] if none *)
  bound : float;      (** proven bound on the optimum (model direction):
                          upper bound when maximising, lower when minimising *)
  x : float array;    (** incumbent point; all-[nan] if none *)
  nodes : int;        (** LP relaxations solved *)
  pivots : int;       (** simplex pivots across all node LPs *)
}

type options = {
  max_nodes : int;
  time_limit : float;     (** seconds; [infinity] = none *)
  int_tol : float;        (** integrality tolerance *)
  gap_abs : float;        (** pruning slack: stop when bound - incumbent
                              is below this.  Default 0 — a positive gap
                              trades exactness (and the strategy-
                              independence of the certified value) for
                              speed *)
  branch : Search.Strategy.t;  (** branching rule; default
                                   [Most_fractional] *)
}

val default_options : options

val solve :
  ?options:options ->
  ?objective:Lp.Model.dir * (int * float) list ->
  ?bounds:float array * float array ->
  Lp.Model.t -> result
(** [objective] overrides the model's objective (constant term 0),
    allowing one model to serve many bound queries.  [bounds] replaces
    the structural root bounds (arrays of length [n_vars]; integer
    bounds are still rounded inward afterwards), allowing one model to
    be replayed under different input intervals — e.g. a deduplicated
    certification cone. *)

val fixing_bounds :
  Lp.Model.t -> (Lp.Model.var * float) list -> float array * float array
(** The model's structural bounds with each listed variable pinned to a
    value — ready to pass as [solve]'s [bounds].  Used to fix indicator
    binaries whose value is known statically (e.g. ReLU phases proven
    stable by symbolic analysis) so branch & bound never branches on
    them. *)
