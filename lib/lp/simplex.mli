(** Bounded-variable primal/dual simplex.

    Two-phase revised simplex over a sparse LU-factorised basis
    ({!Linalg.Lu}): FTRAN/BTRAN triangular solves against sparse
    right-hand sides, an eta-file update per pivot, and adaptive
    refactorisation triggered by eta-file growth and a numerical
    stability estimate.  Dantzig pricing with a Bland's-rule fallback
    and bound-flip pivots.  The LU is the only basis representation: a
    basis it rejects as singular to working precision ends the solve
    with [Iteration_limit] (counted as [session_stats.lu_rejections]
    and the ["simplex.lu_rejections"] metric).  Designed for the
    moderate-size, mostly-finitely-bounded, very sparse LPs produced by
    robustness certification.

    Every solve is a {!session} solve: {!solve} and {!solve_compiled}
    are the first, always cold, solve of a fresh session.  A session
    keeps the optimal basis factorised between solves: an
    objective-only hot start (re-price and run primal phase 2, covering
    the certifier's per-neuron min/max sweeps over one matrix) and a
    bound-change restart (nonbasic variables ride along with their
    bounds and a dual-simplex phase recovers feasibility, covering
    branch & bound child nodes and case-splitting re-solves).  A
    restart still infeasible after [max 1000 (10 m)] dual pivots
    ([m] rows) is taken as stalled and falls back to a cold solve.
    The session's LU workspace is refactorised in place by every state
    it builds.  Cold and
    warm solves share one state constructor, one phase-2 finish and one
    basis exchange, and each event is counted once, where it happens,
    into the session's {!session_stats} and the process-wide
    ["simplex.*"] metrics.

    Integer marks on variables are ignored here; see {!module:Milp}. *)

type status =
  | Optimal
  | Infeasible
  | Unbounded
  | Iteration_limit

type solution = {
  status : status;
  obj : float;      (** objective in the model's direction; meaningful only
                        when [status = Optimal] *)
  x : float array;
      (** structural variable values, model index order; all NaN when
          [status = Infeasible] *)
  pivots : int;     (** simplex pivots performed by this solve *)
  duals : float array;
      (** row multipliers at the optimum, one per constraint, in the
          {e minimisation} sense (the internal cost is the negated
          objective for [Maximize] solves): reduced costs
          [c~_j - duals . A_j] satisfy the usual sign conditions at a
          minimisation optimum.  Empty unless [status = Optimal].
          Consumed by the independent certificate checker
          ([Audit_core.Certificate]). *)
}

val time_kernels : bool ref
(** When on, FTRAN/BTRAN wall time is accumulated into {!kernel_times}
    and LU factorisation time into the ["simplex.factor_ns"] metric
    (default off).  The time is counted in integer nanoseconds on the
    ["simplex.ftran_ns"], ["simplex.btran_ns"] and
    ["simplex.factor_ns"] metrics, so solves on several domains add up
    without losing updates. *)

val kernel_times : unit -> float * float
(** [(ftran_seconds, btran_seconds)] accumulated while
    {!time_kernels} was on. *)

val reset_kernel_times : unit -> unit
(** Zero {!kernel_times} and ["simplex.factor_ns"]. *)

val audit_mode : bool ref
(** Opt-in self-check switch, initialised from the [GRC_AUDIT]
    environment variable (any value but ["0"]/empty).  It is the one
    audit switch: [Audit_core.Mode.enabled]/[set] read and write it.  When on, every {!solve_session} result
    served from a retained basis is cross-checked against a cold
    {!solve_compiled} of the same query; disagreement drops the basis,
    returns the cold result and increments
    [session_stats.audit_mismatches]. *)

val solve : ?max_iter:int -> Model.t -> solution
(** [solve_compiled] of the compiled model under its own bounds. *)

(** {1 Compiled form}

    Branch & bound re-solves the same constraint matrix under different
    bounds thousands of times; [compile] extracts the matrix once. *)

type compiled

val compile : Model.t -> compiled

val n_struct : compiled -> int

val default_bounds : compiled -> float array * float array
(** Fresh copies of the model's structural bounds at [compile] time. *)

val solve_compiled :
  ?max_iter:int ->
  ?objective:Model.dir * (int * float) list ->
  compiled -> lo:float array -> hi:float array -> solution
(** Solve with overridden structural bounds (arrays of length
    [n_struct]): the first solve of [create_session ~lo ~hi], so it is
    always cold (fresh basis) and raises as {!create_session} does.
    [objective] replaces the model's objective (constant term 0) —
    certification solves many min/max queries over one encoded model.
    The [compiled] value is not mutated and may be shared; keep a
    {!session} to amortise work across related solves. *)

(** {1 Sessions: warm-started solves}

    A session owns a mutable copy of the structural bounds and, after
    the first solve, the factorised optimal basis.  Subsequent solves
    reuse it:

    - {b objective swap} (bounds untouched): the basis stays primal
      feasible, so only phase 2 runs — no phase 1, no refactorisation;
    - {b bound change} ({!set_bounds} / {!set_var_bounds}): nonbasic
      variables move with their bounds, basic values are updated
      incrementally, and a dual-simplex phase restores feasibility
      before phase 2 — again skipping phase 1 and the O(m³) refactor.

    Any numerically suspect warm start falls back to a cold solve
    automatically, so results never depend on the solve history (a
    basis the LU rejects at a warm optimum ends that solve with
    [Iteration_limit] instead).  A
    session is single-threaded; create one per domain worker (the
    underlying [compiled] may be shared freely). *)

type session

val create_session :
  ?lo:float array -> ?hi:float array -> compiled -> session
(** Bounds default to the model's bounds at compile time; the arrays
    are copied.  Raises [Invalid_argument] on a length mismatch or a NaN
    bound. *)

val set_var_bounds : session -> int -> lo:float -> hi:float -> unit
(** Replace one structural variable's bounds.  Cheap: O(m·nnz(col))
    when the variable is nonbasic, O(1) when basic.  An empty range
    ([lo > hi]) makes subsequent solves report [Infeasible] until the
    range is widened again. *)

val set_bounds : session -> lo:float array -> hi:float array -> unit
(** Replace all structural bounds (length [n_struct]); only entries
    that actually changed are touched. *)

val session_bounds : session -> float array * float array
(** Fresh copies of the session's current structural bounds. *)

val solve_session :
  ?max_iter:int ->
  ?objective:Model.dir * (int * float) list ->
  session -> solution
(** Solve under the session's current bounds, warm-starting from the
    retained basis whenever possible.  [objective] as in
    {!solve_compiled}.  Statuses and objectives agree with a cold
    {!solve_compiled} on the same bounds and objective (up to solver
    tolerances). *)

(** {2 Basis snapshots}

    A snapshot fixes a warm start independently of the solve history:
    a session restored to it solves exactly as every other session
    restored to it under the same bounds and objective, whatever either
    solved in between. *)

type basis
(** The basic set and the nonbasic at-lower/at-upper flags of a
    session's retained basis (empty when it retains none). *)

val snapshot : session -> basis
(** The session's current basis; later solves do not change it. *)

val restore : session -> basis -> unit
(** Make [basis] the warm start of the session's next solve, which
    rebuilds it under the bounds current at that solve: nonbasic values
    follow the flags, the LU is factorised afresh (no eta file is
    shared) and basic values are recomputed, then the usual dual
    restart and phase 2 run.  The session's bounds are left alone.  A
    basis the LU rejects, an empty snapshot or a numerically suspect restart
    falls back to a cold solve.  [basis] must come from a session over
    the same [compiled]. *)

type session_stats = {
  mutable solves : int;
      (** total [solve_session] calls (["simplex.solves"]) *)
  mutable cold_solves : int;
      (** full two-phase solves (["simplex.cold_solves"]); a solve under
          an empty range runs none *)
  mutable warm_solves : int;
      (** solves served from the retained basis (["simplex.warm_solves"]) *)
  mutable fallbacks : int;
      (** warm attempts abandoned to a cold solve (["simplex.fallbacks"]) *)
  mutable total_pivots : int;
      (** pivots across all solves, counted per basis exchange (one
          ["simplex.eta_updates"] each); a solution's [pivots], summed
          into ["simplex.pivots"], counts those of a warm attempt that
          fell back to a cold solve as well, so the two metrics
          agree *)
  mutable audit_mismatches : int;
      (** warm results contradicted by the audit-mode cold cross-check *)
  mutable lu_rejections : int;
      (** bases the LU rejected as singular (["simplex.lu_rejections"]),
          each ending its solve with [Iteration_limit] (a restored basis
          falls back to a cold solve instead, and a rejected cold start
          reports [Infeasible]); 0 on every benchmarked
          net (asserted by the [lp:session] test "no LU rejections on
          encodings") *)
}
(** Dual restarts, refactorisations and eta updates are counted only
    process-wide, as the ["simplex.dual_restarts"], ["lp:refactor"] (and
    a ["refactor"] count on the enclosing trace span) and
    ["simplex.eta_updates"] metrics. *)

val session_stats : session -> session_stats
(** Live counters (not a snapshot); treat as read-only. *)
