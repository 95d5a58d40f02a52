module Model = Lp.Model

let m_lp_queries = Obs.Metrics.counter "engine.lp_queries"
let m_milp_queries = Obs.Metrics.counter "engine.milp_queries"

(* A bound-query engine over one encoded model.  For pure-LP encodings
   the model is compiled once and every min/max query warm-starts from
   the previous optimal basis (objective-only hot start); models with
   integer marks fall through to branch & bound. *)
type t = Model.dir -> (Model.var * float) list -> float option

let session_solution ~name ~model session ~objective:(dir, terms) =
  let sol = Lp.Simplex.solve_session ~objective:(dir, terms) session in
  if Audit_core.Mode.enabled () then begin
    (* independent certificate check against the original model *)
    let lo, hi = Lp.Simplex.session_bounds session in
    Audit_core.Mode.report
      (Audit_core.Certificate.check ~name ~lo ~hi ~objective:(dir, terms)
         ~model sol)
  end;
  sol

let of_session ~name ~model session dir terms =
  Obs.Trace.with_span "engine.query" @@ fun () ->
  Obs.Metrics.add m_lp_queries 1;
  let sol = session_solution ~name ~model session ~objective:(dir, terms) in
  match sol.Lp.Simplex.status with
  | Lp.Simplex.Optimal -> Some sol.Lp.Simplex.obj
  | Lp.Simplex.Infeasible | Lp.Simplex.Unbounded
  | Lp.Simplex.Iteration_limit -> None

let of_milp ~options ?bounds model dir terms =
  Obs.Trace.with_span "engine.query" @@ fun () ->
  Obs.Metrics.add m_milp_queries 1;
  let r = Milp.solve ~options ?bounds ~objective:(dir, terms) model in
  match r.Milp.status with
  | Milp.Optimal | Milp.Limit | Milp.Lp_failure ->
      (* [bound] is a sound over-approximation in the query direction
         even under Limit / Lp_failure *)
      if Float.is_nan r.Milp.bound then None else Some r.Milp.bound
  | Milp.Infeasible | Milp.Unbounded -> None
