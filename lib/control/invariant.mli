(** Robust invariant-set verification for the 2-D ACC closed loop.

    {!mpi_analysis} (used by the case study) computes the maximal
    robust positively invariant subset of the safe box by the classical
    iteration [S_{k+1} = {x in S_k : Acl x + d in S_k for all d}].
    Each step adds the half-planes [H Acl^k x <= h - gamma_k] (with
    [gamma_k] the accumulated disturbance support) and stops when they
    are all redundant — redundancy is decided with the library's own LP
    solver.  The loop is verified safe for an estimation-error bound
    [dd_max] when the resulting set is non-empty and contains the
    nominal operating point. *)

type mpi_result = {
  iterations : int;        (** powers of [Acl] processed *)
  n_constraints : int;     (** facets of the invariant polytope *)
  converged : bool;
  nonempty : bool;
  contains_nominal : bool; (** nominal point [x = 0] inside *)
  safe : bool;             (** converged, non-empty, nominal inside *)
  constraints : (float array * float) list;
      (** the invariant polytope as [row . x <= rhs] half-planes *)
}

val mpi_analysis : ?max_iter:int -> Acc.params -> dd_max:float -> mpi_result

val max_safe_estimation_error : ?tol:float -> Acc.params -> float
(** Largest [dd_max] (bisection, default [tol = 1e-3]) for which
    {!mpi_analysis} verifies safety; 0 when even the undisturbed loop
    fails. *)
