(** Mixed-integer linear programming by branch & bound.

    Solves a {!Lp.Model.t} whose variables may carry the [integer] mark.
    LP relaxations are solved with {!Lp.Simplex}; the tree is driven by
    the shared {!Search} core (best-bound-first frontier, bound-delta
    nodes, one warm-started solver session).  Each node branches on the
    fractional integer with the largest distance from integrality times
    its |dual| column sensitivity ({!Search.Columns}), falling back to
    the most fractional one when every score is 0.

    The optimum does not depend on the session's warm-start history:
    every integer assignment the search meets is valued by a dual
    restart from the root node's optimal basis ({!Lp.Simplex.restore})
    with the assignment pinned, and a plateau polish sweeps the
    near-tied neighbours of the incumbent.  There is no optimality gap: a node
    is pruned only when its bound exceeds the incumbent by a fixed
    1e-9 tie slack, and integrality is judged to a fixed 1e-6.  An
    integer box of at most four assignments is enumerated that way
    instead of searched.  LP solves are counted by purpose in the
    [milp.solves.node], [.rounding], [.canonical], [.polish] and
    [.enumerate] metrics.

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
}

type options = {
  max_nodes : int;
  time_limit : float;     (** seconds; [infinity] = none *)
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
