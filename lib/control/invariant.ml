module Mat = Linalg.Mat

type mpi_result = {
  iterations : int;
  n_constraints : int;
  converged : bool;
  nonempty : bool;
  contains_nominal : bool;
  safe : bool;
  constraints : (float array * float) list;
}

(* Support function of the per-step disturbance set along direction r:
   the disturbance is BK [dd; 0] + E w1 + w2 over independent symmetric
   intervals, so the support decomposes into absolute values. *)
let disturbance_support params ~dd_max r =
  let sys = Acc.system params in
  let bk = Mat.mul sys.Lti.b sys.Lti.k in
  let w1_max =
    let p = params in
    Float.max
      (Float.abs (p.Acc.v_nominal -. p.Acc.v_ref.Cert.Interval.lo))
      (Float.abs (p.Acc.v_nominal -. p.Acc.v_ref.Cert.Interval.hi))
  in
  let bk_dd = (r.(0) *. Mat.get bk 0 0) +. (r.(1) *. Mat.get bk 1 0) in
  let e_w1 = (r.(0) *. Mat.get sys.Lti.e 0 0)
             +. (r.(1) *. Mat.get sys.Lti.e 1 0) in
  (Float.abs bk_dd *. dd_max)
  +. (Float.abs e_w1 *. w1_max)
  +. (Float.abs r.(0) *. params.Acc.w_d)
  +. (Float.abs r.(1) *. params.Acc.w_v)

(* Is [row . x <= rhs] implied by the constraint list?  Decided by
   maximising [row . x] over the constraints with the LP solver. *)
let redundant constraints ~box (row, rhs) =
  let model = Lp.Model.create () in
  let s1, s2 = box in
  let x1 = Lp.Model.add_var ~lo:(-.s1) ~hi:s1 model in
  let x2 = Lp.Model.add_var ~lo:(-.s2) ~hi:s2 model in
  List.iter
    (fun (r, h) ->
      Lp.Model.add_constr model [ (x1, r.(0)); (x2, r.(1)) ] Lp.Model.Le h)
    constraints;
  Lp.Model.set_objective model Lp.Model.Maximize
    [ (x1, row.(0)); (x2, row.(1)) ];
  let sol = Lp.Simplex.solve model in
  match sol.Lp.Simplex.status with
  | Lp.Simplex.Optimal -> sol.Lp.Simplex.obj <= rhs +. 1e-9
  | Lp.Simplex.Infeasible -> true (* empty set: everything is implied *)
  | Lp.Simplex.Unbounded | Lp.Simplex.Iteration_limit -> false

let feasible constraints ~box =
  let model = Lp.Model.create () in
  let s1, s2 = box in
  let x1 = Lp.Model.add_var ~lo:(-.s1) ~hi:s1 model in
  let x2 = Lp.Model.add_var ~lo:(-.s2) ~hi:s2 model in
  List.iter
    (fun (r, h) ->
      Lp.Model.add_constr model [ (x1, r.(0)); (x2, r.(1)) ] Lp.Model.Le h)
    constraints;
  Lp.Model.set_objective model Lp.Model.Minimize [];
  (Lp.Simplex.solve model).Lp.Simplex.status = Lp.Simplex.Optimal

let mpi_analysis ?(max_iter = 400) params ~dd_max =
  let sys = Acc.system params in
  let acl = Lti.closed_loop_a sys in
  let s1, s2 = Acc.safe_box params in
  let box = (s1, s2) in
  let base_rows =
    [ ([| 1.0; 0.0 |], s1); ([| -1.0; 0.0 |], s1);
      ([| 0.0; 1.0 |], s2); ([| 0.0; -1.0 |], s2) ]
  in
  (* state per base row: current direction r_k = r0 Acl^k and the
     accumulated disturbance support gamma_k *)
  let state =
    ref (List.map (fun (r, h) -> (r, h, 0.0)) base_rows)
  in
  let constraints = ref (List.map (fun (r, h) -> (r, h)) base_rows) in
  let converged = ref false in
  let iterations = ref 0 in
  while (not !converged) && !iterations < max_iter do
    incr iterations;
    (* advance every tracked direction one step: r <- r Acl,
       gamma <- gamma + support(previous r) *)
    let next =
      List.map
        (fun (r, h, gamma) ->
          let gamma' = gamma +. disturbance_support params ~dd_max r in
          let r' =
            [| (r.(0) *. Mat.get acl 0 0) +. (r.(1) *. Mat.get acl 1 0);
               (r.(0) *. Mat.get acl 0 1) +. (r.(1) *. Mat.get acl 1 1) |]
          in
          (r', h, gamma'))
        !state
    in
    state := next;
    let fresh =
      List.filter_map
        (fun (r, h, gamma) ->
          let rhs = h -. gamma in
          if redundant !constraints ~box (r, rhs) then None
          else Some (r, rhs))
        next
    in
    if fresh = [] then converged := true
    else constraints := !constraints @ fresh
  done;
  let nonempty = feasible !constraints ~box in
  let contains_nominal =
    List.for_all (fun (_, h) -> h >= -1e-9) !constraints
  in
  { iterations = !iterations;
    n_constraints = List.length !constraints;
    converged = !converged;
    nonempty;
    contains_nominal;
    safe = !converged && nonempty && contains_nominal;
    constraints = !constraints }

let max_safe_estimation_error ?(tol = 1e-3) params =
  if not (mpi_analysis params ~dd_max:0.0).safe then 0.0
  else begin
    let lo = ref 0.0 and hi = ref 1.0 in
    while (mpi_analysis params ~dd_max:!hi).safe && !hi < 64.0 do
      hi := !hi *. 2.0
    done;
    while !hi -. !lo > tol do
      let mid = 0.5 *. (!lo +. !hi) in
      if (mpi_analysis params ~dd_max:mid).safe then lo := mid else hi := mid
    done;
    !lo
  end
