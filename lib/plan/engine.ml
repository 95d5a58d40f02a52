module Model = Lp.Model

type stats = {
  mutable lp_solves : int;
  mutable milp_solves : int;
  mutable lp_pivots : int;
  mutable lp_warm : int;
}

let zero_stats () =
  { lp_solves = 0; milp_solves = 0; lp_pivots = 0; lp_warm = 0 }

let merge_stats ~into from =
  into.lp_solves <- into.lp_solves + from.lp_solves;
  into.milp_solves <- into.milp_solves + from.milp_solves;
  into.lp_pivots <- into.lp_pivots + from.lp_pivots;
  into.lp_warm <- into.lp_warm + from.lp_warm

let m_lp_queries = Obs.Metrics.counter "engine.lp_queries"
let m_milp_queries = Obs.Metrics.counter "engine.milp_queries"

(* A bound-query engine over one encoded model.  For pure-LP encodings
   the model is compiled once and every min/max query warm-starts from
   the previous optimal basis (objective-only hot start); models with
   integer marks fall through to branch & bound. *)
type t = Model.dir -> (Model.var * float) list -> float option

let session_solution stats ~name ~model session ~objective:(dir, terms) =
  stats.lp_solves <- stats.lp_solves + 1;
  let live = Lp.Simplex.session_stats session in
  let warm0 = live.Lp.Simplex.warm_solves in
  let sol = Lp.Simplex.solve_session ~objective:(dir, terms) session in
  stats.lp_pivots <- stats.lp_pivots + sol.Lp.Simplex.pivots;
  stats.lp_warm <- stats.lp_warm + (live.Lp.Simplex.warm_solves - warm0);
  if Audit_core.Mode.enabled () then begin
    (* independent certificate check against the original model *)
    let lo, hi = Lp.Simplex.session_bounds session in
    Audit_core.Mode.report
      (Audit_core.Certificate.check ~name ~lo ~hi ~objective:(dir, terms)
         ~model sol)
  end;
  sol

let of_session stats ~name ~model session dir terms =
  Obs.Trace.with_span "engine.query" @@ fun () ->
  Obs.Metrics.add m_lp_queries 1;
  let sol =
    session_solution stats ~name ~model session ~objective:(dir, terms)
  in
  match sol.Lp.Simplex.status with
  | Lp.Simplex.Optimal -> Some sol.Lp.Simplex.obj
  | Lp.Simplex.Infeasible | Lp.Simplex.Unbounded
  | Lp.Simplex.Iteration_limit -> None

let of_milp stats ~options ?bounds model dir terms =
  Obs.Trace.with_span "engine.query" @@ fun () ->
  Obs.Metrics.add m_milp_queries 1;
  stats.milp_solves <- stats.milp_solves + 1;
  let r = Milp.solve ~options ?bounds ~objective:(dir, terms) model in
  stats.lp_pivots <- stats.lp_pivots + r.Milp.pivots;
  match r.Milp.status with
  | Milp.Optimal | Milp.Limit | Milp.Lp_failure ->
      (* [bound] is a sound over-approximation in the query direction
         even under Limit / Lp_failure *)
      if Float.is_nan r.Milp.bound then None else Some r.Milp.bound
  | Milp.Infeasible | Milp.Unbounded -> None
