type status = Optimal | Infeasible | Unbounded | Iteration_limit

type solution = {
  status : status;
  obj : float;
  x : float array;
  pivots : int;
  duals : float array;
}

(* Opt-in audit mode (GRC_AUDIT, or Audit_core.Mode.set): every
   warm-started session solve is cross-checked against a cold solve and
   the retained basis is dropped on disagreement. *)
let audit_mode =
  ref
    (match Sys.getenv_opt "GRC_AUDIT" with
     | None | Some "" | Some "0" -> false
     | Some _ -> true)

type compiled = {
  m : int;                                   (* constraint rows *)
  n : int;                                   (* structural variables *)
  cols : (int array * float array) array;    (* n structural + m slack columns *)
  b : float array;
  c : float array;                           (* minimisation costs, length n *)
  obj_const : float;
  negate : bool;                             (* original direction was Maximize *)
  slack_lo : float array;
  slack_hi : float array;
  model_lo : float array;
  model_hi : float array;
}

(* Process-wide solve accounting (Obs.Metrics: one atomic per solve,
   always on) and opt-in tracing spans (near-free while disabled). *)
let m_solves = Obs.Metrics.counter "simplex.solves"
let m_pivots = Obs.Metrics.counter "simplex.pivots"
let m_warm = Obs.Metrics.counter "simplex.warm_solves"
let m_cold = Obs.Metrics.counter "simplex.cold_solves"
let m_dual_restarts = Obs.Metrics.counter "simplex.dual_restarts"
let m_fallbacks = Obs.Metrics.counter "simplex.fallbacks"
let m_phase1 = Obs.Metrics.counter "simplex.phase1_runs"
let m_phase2 = Obs.Metrics.counter "simplex.phase2_runs"
let m_ftrans = Obs.Metrics.counter "simplex.ftrans"
let m_btrans = Obs.Metrics.counter "simplex.btrans"
let m_lu_factors = Obs.Metrics.counter "simplex.lu_factors"
let m_eta_updates = Obs.Metrics.counter "simplex.eta_updates"
let m_refactors = Obs.Metrics.counter "lp:refactor"
let m_lu_rejections = Obs.Metrics.counter "simplex.lu_rejections"

let feas_tol = 1e-7
let opt_tol = 1e-7
let pivot_tol = 1e-9

(* Adaptive refactorisation of the LU basis (see [basis_stale]):
   refactorise once the eta file holds [eta_cap m] terms or more than
   [eta_growth] times the factor nonzeros, or after an eta update whose
   relative pivot fell below [stab_tol]; a warm session also
   refactorises at least every [session_solves_cap] solves, bounding
   drift of the incrementally maintained basic values. *)
let eta_cap m = min 64 (max 4 (m / 2))
let eta_growth = 2.0
let stab_tol = 1e-7
let session_solves_cap = 256

(* Opt-in FTRAN/BTRAN/factorisation wall-time accounting for the bench
   harness, in integer nanoseconds on process-wide counters, so
   concurrent domains lose no update. *)
let time_kernels = ref false
let m_ftran_ns = Obs.Metrics.counter "simplex.ftran_ns"
let m_btran_ns = Obs.Metrics.counter "simplex.btran_ns"
let m_factor_ns = Obs.Metrics.counter "simplex.factor_ns"

let kernel_start () = if !time_kernels then Obs.Clock.now () else 0.0

let kernel_stop counter t0 =
  if t0 > 0.0 then
    Obs.Metrics.add counter (Float.to_int ((Obs.Clock.now () -. t0) *. 1e9))

let reset_kernel_times () =
  List.iter
    (fun c -> Obs.Metrics.add c (-Obs.Metrics.get c))
    [ m_ftran_ns; m_btran_ns; m_factor_ns ]

let kernel_times () =
  (float_of_int (Obs.Metrics.get m_ftran_ns) *. 1e-9,
   float_of_int (Obs.Metrics.get m_btran_ns) *. 1e-9)

let compile model =
  let n = Model.n_vars model in
  let constrs = Model.constrs model in
  let m = Array.length constrs in
  let b = Array.map (fun (c : Model.constr) -> c.rhs) constrs in
  (* gather structural columns *)
  let buckets = Array.make n [] in
  Array.iteri
    (fun i (c : Model.constr) ->
      List.iter (fun (j, v) -> buckets.(j) <- (i, v) :: buckets.(j)) c.row)
    constrs;
  let structural_col j =
    (* merge duplicate row entries, ascending row order *)
    let entries = List.sort (fun (a, _) (b, _) -> compare a b) buckets.(j) in
    let rec merge = function
      | (i, a) :: (i', b) :: rest when i = i' -> merge ((i, a +. b) :: rest)
      | (i, a) :: rest -> if a = 0.0 then merge rest else (i, a) :: merge rest
      | [] -> []
    in
    let entries = merge entries in
    (Array.of_list (List.map fst entries),
     Array.of_list (List.map snd entries))
  in
  let cols =
    Array.init (n + m) (fun j ->
        if j < n then structural_col j else ([| j - n |], [| 1.0 |]))
  in
  let slack_lo = Array.make m 0.0 and slack_hi = Array.make m 0.0 in
  Array.iteri
    (fun i (c : Model.constr) ->
      match c.sense with
      | Model.Le -> slack_lo.(i) <- 0.0; slack_hi.(i) <- infinity
      | Model.Ge -> slack_lo.(i) <- neg_infinity; slack_hi.(i) <- 0.0
      | Model.Eq -> slack_lo.(i) <- 0.0; slack_hi.(i) <- 0.0)
    constrs;
  let dir, obj_const, obj = Model.objective model in
  let negate = dir = Model.Maximize in
  let c = Array.make n 0.0 in
  List.iter
    (fun (j, v) -> c.(j) <- c.(j) +. (if negate then -.v else v))
    obj;
  let model_lo = Array.init n (Model.var_lo model) in
  let model_hi = Array.init n (Model.var_hi model) in
  { m; n; cols; b; c; obj_const; negate; slack_lo; slack_hi;
    model_lo; model_hi }

let n_struct cp = cp.n

let default_bounds cp = (Array.copy cp.model_lo, Array.copy cp.model_hi)

(* Per-solve objective parameters (the compiled matrix is shared). *)
type params = { pc : float array; pnegate : bool; pconst : float }

let params_of_objective cp = function
  | None -> { pc = cp.c; pnegate = cp.negate; pconst = cp.obj_const }
  | Some (dir, terms) ->
      let pnegate = dir = Model.Maximize in
      let pc = Array.make cp.n 0.0 in
      List.iter
        (fun (j, v) ->
          if j < 0 || j >= cp.n then
            invalid_arg "Simplex: objective variable out of range";
          pc.(j) <- pc.(j) +. (if pnegate then -.v else v))
        terms;
      { pc; pnegate; pconst = 0.0 }

(* Variable status. *)
type vstat = At_lower | At_upper | Free_zero | Basic

type session_stats = {
  mutable solves : int;
  mutable cold_solves : int;
  mutable warm_solves : int;
  mutable fallbacks : int;
  mutable total_pivots : int;
  mutable audit_mismatches : int;
  mutable lu_rejections : int;
}

(* Mutable solver state.  Variables are indexed 0..nt-1 where
   [0, n)        structural,
   [n, n+m)      slacks,
   [n+m, nt)     artificials (phase 1 only; fixed to 0 afterwards).
   The basis is held as a sparse LU factorisation with its eta file
   ([Linalg.Lu]), behind FTRAN/BTRAN; the LU workspace is the owning
   session's, refactorised in place.  Pivots and LU rejections are
   counted where they happen, into the owning session's [stats]. *)
type state = {
  cp : compiled;
  stats : session_stats;
  nt : int;
  all_cols : (int array * float array) array;
  lo : float array;
  hi : float array;
  stat : vstat array;
  value : float array;        (* nonbasic values; basics live in xb *)
  basis : int array;          (* length m, var in each row *)
  pos : int array;            (* var -> basic row, or -1 *)
  lu : Linalg.Lu.t;
  xb : float array;           (* basic variable values *)
  y : float array;            (* scratch: entering column in basis coords *)
  pi : float array;           (* scratch: simplex multipliers *)
  cb : float array;           (* scratch: basic costs, basis-row order *)
  rho : float array;          (* scratch: one row of B^-1 (dual pricing) *)
}

let ftran st col =
  let t0 = kernel_start () in
  let idx, vals = col in
  Linalg.Lu.ftran_pair st.lu idx vals st.y;
  Obs.Metrics.add m_ftrans 1;
  kernel_stop m_ftran_ns t0

(* pi = cB^T B^-1 for the given full cost vector *)
let compute_pi st cost =
  let t0 = kernel_start () in
  for i = 0 to st.cp.m - 1 do
    st.cb.(i) <- cost.(st.basis.(i))
  done;
  Linalg.Lu.btran_dense st.lu st.cb st.pi;
  Obs.Metrics.add m_btrans 1;
  kernel_stop m_btran_ns t0

(* Row [r] of B^-1, for the dual-simplex pricing row, in the [rho]
   scratch: valid until the next kernel call on [st]. *)
let basis_row st r =
  let t0 = kernel_start () in
  Linalg.Lu.btran_unit st.lu r st.rho;
  Obs.Metrics.add m_btrans 1;
  kernel_stop m_btran_ns t0;
  st.rho

(* Is the factorisation due for a refactorisation?  It is on the
   stability flag, eta-file length, or eta fill outgrowing the factors
   themselves. *)
let basis_stale st =
  let lu = st.lu in
  Linalg.Lu.unstable lu
  || Linalg.Lu.eta_count lu >= eta_cap st.cp.m
  || float_of_int (Linalg.Lu.eta_nnz lu)
     >= eta_growth *. float_of_int (Linalg.Lu.lu_nnz lu + st.cp.m)

let reduced_cost st cost j =
  let idx, vals = st.all_cols.(j) in
  let acc = ref cost.(j) in
  for k = 0 to Array.length idx - 1 do
    acc := !acc -. (st.pi.(idx.(k)) *. vals.(k))
  done;
  !acc

(* xb = B^-1 (b - N x_N), against the freshly rebuilt factorisation. *)
let recompute_xb st =
  let r = Array.copy st.cp.b in
  for j = 0 to st.nt - 1 do
    if st.stat.(j) <> Basic && st.value.(j) <> 0.0 then begin
      let idx, vals = st.all_cols.(j) in
      for k = 0 to Array.length idx - 1 do
        r.(idx.(k)) <- r.(idx.(k)) -. (vals.(k) *. st.value.(j))
      done
    end
  done;
  Linalg.Lu.ftran_dense st.lu r st.xb

(* Factorise the basis afresh and recompute basic values.  Returns
   false, counted ([lu_rejections], "simplex.lu_rejections"), when the
   LU declines the basis as singular to working precision; the
   factorisation is then unusable and the caller abandons the state. *)
let refactor ?(initial = false) st =
  let m = st.cp.m in
  if m = 0 then true
  else begin
    if not initial then begin
      Obs.Metrics.add m_refactors 1;
      if Obs.Trace.enabled () then Obs.Trace.count "refactor" 1
    end;
    let t0 = kernel_start () in
    let ok = Linalg.Lu.factor st.lu (fun i -> st.all_cols.(st.basis.(i))) in
    kernel_stop m_factor_ns t0;
    if ok then begin
      Obs.Metrics.add m_lu_factors 1;
      recompute_xb st;
      true
    end
    else begin
      st.stats.lu_rejections <- st.stats.lu_rejections + 1;
      Obs.Metrics.add m_lu_rejections 1;
      false
    end
  end

(* Where a nonbasic variable sits under bounds [lo]/[hi]: on the bound
   its status names when that bound is finite, otherwise on the finite
   one (the one closer to zero when both are), else free at zero. *)
let place stat ~lo ~hi =
  if lo > neg_infinity && hi < infinity then
    match stat with
    | At_upper -> (At_upper, hi)
    | At_lower -> (At_lower, lo)
    | Free_zero | Basic ->
        if Float.abs hi < Float.abs lo then (At_upper, hi) else (At_lower, lo)
  else if lo > neg_infinity then (At_lower, lo)
  else if hi < infinity then (At_upper, hi)
  else (Free_zero, 0.0)

(* Nonbasic variable [j] on the bound its status names. *)
let bound_value st j =
  match st.stat.(j) with
  | At_lower -> st.lo.(j)
  | At_upper -> st.hi.(j)
  | Free_zero -> 0.0
  | Basic -> assert false

(* Basis exchange on row [r]: [j] enters at value [x] and the variable
   basic in row [r] leaves to its bound [at].  The pivot is folded into
   the factorisation as an eta term, so [st.y] must hold the FTRAN of
   [j]'s column (the ratio-test vector). *)
let exchange st r j ~x ~at =
  let leaving = st.basis.(r) in
  st.stat.(leaving) <- at;
  st.value.(leaving) <- bound_value st leaving;
  st.pos.(leaving) <- -1;
  st.basis.(r) <- j;
  st.pos.(j) <- r;
  st.stat.(j) <- Basic;
  st.value.(j) <- 0.0;
  st.xb.(r) <- x;
  let quality = Linalg.Lu.push_eta st.lu ~r ~y:st.y in
  Obs.Metrics.add m_eta_updates 1;
  if quality < stab_tol then Linalg.Lu.flag_unstable st.lu;
  st.stats.total_pivots <- st.stats.total_pivots + 1

(* One phase of bounded-variable simplex, minimising [cost].  Returns
   [`Optimal], [`Unbounded] or [`Iteration_limit]. *)
let run_phase st cost max_iter =
  let m = st.cp.m in
  let iter = ref 0 in
  let result = ref None in
  let bland_threshold = max 2000 (20 * (m + st.nt)) in
  while !result = None do
    (* a basis the LU rejects ends the solve, as the iteration limit
       does; every caller already answers that status soundly *)
    if !iter >= max_iter || (basis_stale st && not (refactor st)) then
      result := Some `Iteration_limit
    else begin
      incr iter;
      compute_pi st cost;
      (* --- pricing --- *)
      let use_bland = !iter > bland_threshold in
      let best = ref (-1) and best_score = ref 0.0 and best_sigma = ref 1.0 in
      (try
         for j = 0 to st.nt - 1 do
           (match st.stat.(j) with
            | Basic -> ()
            | At_lower | At_upper | Free_zero ->
                if st.lo.(j) < st.hi.(j) then begin
                  let d = reduced_cost st cost j in
                  let score, sigma =
                    match st.stat.(j) with
                    | At_lower -> if d < -.opt_tol then (-.d, 1.0) else (0.0, 0.0)
                    | At_upper -> if d > opt_tol then (d, -1.0) else (0.0, 0.0)
                    | Free_zero ->
                        if d < -.opt_tol then (-.d, 1.0)
                        else if d > opt_tol then (d, -1.0)
                        else (0.0, 0.0)
                    | Basic -> (0.0, 0.0)
                  in
                  if score > !best_score then begin
                    best := j; best_score := score; best_sigma := sigma;
                    if use_bland then raise Exit
                  end
                end)
         done
       with Exit -> ());
      if !best < 0 then result := Some `Optimal
      else begin
        let j = !best and sigma = !best_sigma in
        ftran st st.all_cols.(j);
        (* --- ratio test --- *)
        let own_range = st.hi.(j) -. st.lo.(j) in
        let t_best = ref own_range and leave = ref (-1) in
        for i = 0 to m - 1 do
          let d = -.sigma *. st.y.(i) in
          let bi = st.basis.(i) in
          if d < -.pivot_tol && st.lo.(bi) > neg_infinity then begin
            let t = Float.max 0.0 ((st.xb.(i) -. st.lo.(bi)) /. -.d) in
            if t < !t_best -. 1e-12
               || (t <= !t_best +. 1e-12 && !leave >= 0
                   && Float.abs st.y.(i) > Float.abs st.y.(!leave))
            then begin t_best := t; leave := i end
          end
          else if d > pivot_tol && st.hi.(bi) < infinity then begin
            let t = Float.max 0.0 ((st.hi.(bi) -. st.xb.(i)) /. d) in
            if t < !t_best -. 1e-12
               || (t <= !t_best +. 1e-12 && !leave >= 0
                   && Float.abs st.y.(i) > Float.abs st.y.(!leave))
            then begin t_best := t; leave := i end
          end
        done;
        if Float.is_nan !t_best || !t_best = infinity then
          result := Some `Unbounded
        else begin
          let t = !t_best in
          (* move basics *)
          for i = 0 to m - 1 do
            st.xb.(i) <- st.xb.(i) +. (-.sigma *. st.y.(i) *. t)
          done;
          let new_val = bound_value st j +. (sigma *. t) in
          if !leave < 0 then begin
            (* bound flip: entering variable hits its own other bound *)
            st.value.(j) <- new_val;
            st.stat.(j) <- (if sigma > 0.0 then At_upper else At_lower)
          end
          else begin
            let r = !leave in
            let d_r = -.sigma *. st.y.(r) in
            exchange st r j ~x:new_val
              ~at:(if d_r < 0.0 then At_lower else At_upper)
          end
        end
      end
    end
  done;
  match !result with Some r -> r | None -> assert false

(* Dual simplex phase: starting from a basis whose reduced costs are
   dual feasible for [cost] but whose basic values may violate their
   bounds (after a bound change), pivot until primal feasibility is
   recovered.  Returns [`Feasible], [`Infeasible] (dual unbounded, so
   the primal has no feasible point) or [`Iteration_limit], at
   [max_iter] or after [stall_threshold] pivots: the phase has no
   anti-cycling rule, so a restart that long is taken as stalled and
   its caller falls back at once to the cold solve it would otherwise
   reach only at [max_iter]. *)
let run_dual st cost max_iter =
  let m = st.cp.m in
  if m = 0 then `Feasible
  else begin
    let iter = ref 0 in
    let result = ref None in
    let stall_threshold = max 1000 (10 * m) in
    while !result = None do
      if !iter >= max_iter || !iter >= stall_threshold
         || (basis_stale st && not (refactor st))
      then
        result := Some `Iteration_limit
      else begin
        incr iter;
        (* --- leaving variable: most violated basic --- *)
        let r = ref (-1) and worst = ref feas_tol in
        for i = 0 to m - 1 do
          let bi = st.basis.(i) in
          let v =
            Float.max (st.lo.(bi) -. st.xb.(i)) (st.xb.(i) -. st.hi.(bi))
          in
          if v > !worst then begin worst := v; r := i end
        done;
        if !r < 0 then result := Some `Feasible
        else begin
          let r = !r in
          let bi = st.basis.(r) in
          let below = st.xb.(r) < st.lo.(bi) in
          let target = if below then st.lo.(bi) else st.hi.(bi) in
          compute_pi st cost;
          let br = basis_row st r in
          (* --- entering variable: dual ratio test over row r --- *)
          let best = ref (-1) and best_ratio = ref infinity
          and best_alpha = ref 0.0 in
          for j = 0 to st.nt - 1 do
            if st.stat.(j) <> Basic && st.lo.(j) < st.hi.(j) then begin
              let idx, vals = st.all_cols.(j) in
              let a = ref 0.0 in
              for k = 0 to Array.length idx - 1 do
                a := !a +. (br.(idx.(k)) *. vals.(k))
              done;
              let a = !a in
              let eligible =
                (* sign of the entering move that drives xb(r) toward its
                   violated bound, respecting the entering bound status *)
                match st.stat.(j) with
                | At_lower -> if below then a < -.pivot_tol else a > pivot_tol
                | At_upper -> if below then a > pivot_tol else a < -.pivot_tol
                | Free_zero -> Float.abs a > pivot_tol
                | Basic -> false
              in
              if eligible then begin
                let d = reduced_cost st cost j in
                let ratio = Float.abs d /. Float.abs a in
                if ratio < !best_ratio -. 1e-12
                   || (ratio <= !best_ratio +. 1e-12
                       && Float.abs a > Float.abs !best_alpha)
                then begin best := j; best_ratio := ratio; best_alpha := a end
              end
            end
          done;
          if !best < 0 then result := Some `Infeasible
          else begin
            let q = !best in
            ftran st st.all_cols.(q);
            let aq = st.y.(r) in
            if Float.abs aq < pivot_tol then
              (* the recomputed pivot element collapsed numerically;
                 bail out, the caller falls back to a cold solve *)
              result := Some `Iteration_limit
            else begin
              let t = (st.xb.(r) -. target) /. aq in
              let v_q = bound_value st q in
              for i = 0 to m - 1 do
                st.xb.(i) <- st.xb.(i) -. (st.y.(i) *. t)
              done;
              exchange st r q ~x:(v_q +. t)
                ~at:(if below then At_lower else At_upper)
            end
          end
        end
      end
    done;
    match !result with Some r -> r | None -> assert false
  end

let objective_value st cost =
  let acc = ref 0.0 in
  for j = 0 to st.nt - 1 do
    if st.stat.(j) <> Basic && st.value.(j) <> 0.0 then
      acc := !acc +. (cost.(j) *. st.value.(j))
  done;
  for i = 0 to st.cp.m - 1 do
    acc := !acc +. (cost.(st.basis.(i)) *. st.xb.(i))
  done;
  !acc

let extract_x st =
  Array.init st.cp.n (fun j ->
      if st.stat.(j) = Basic then st.xb.(st.pos.(j)) else st.value.(j))

(* The one state constructor: basis [basis] over the columns [all_cols]
   (structurals, slacks, then any artificials, ranged [0, art_hi]),
   every nonbasic variable placed by [place] from its status in [stat]
   under the structural bounds [lo]/[hi], then factorised into [lu].
   [None] when the LU rejects the basis. *)
let make_state cp stats lu ~all_cols ~art_hi ~lo ~hi ~stat ~basis =
  let m = cp.m and n = cp.n in
  let nt = Array.length all_cols in
  let lo_all = Array.make nt 0.0 and hi_all = Array.make nt art_hi in
  Array.blit lo 0 lo_all 0 n;
  Array.blit hi 0 hi_all 0 n;
  Array.blit cp.slack_lo 0 lo_all n m;
  Array.blit cp.slack_hi 0 hi_all n m;
  let value = Array.make nt 0.0 and pos = Array.make nt (-1) in
  Array.iteri (fun i j -> pos.(j) <- i; stat.(j) <- Basic) basis;
  for j = 0 to nt - 1 do
    if stat.(j) <> Basic then begin
      let s, v = place stat.(j) ~lo:lo_all.(j) ~hi:hi_all.(j) in
      stat.(j) <- s;
      value.(j) <- v
    end
  done;
  let st =
    { cp; stats; nt; all_cols; lo = lo_all; hi = hi_all; stat; value; basis;
      pos; lu;
      xb = Array.make m 0.0; y = Array.make m 0.0; pi = Array.make m 0.0;
      cb = Array.make m 0.0; rho = Array.make m 0.0 }
  in
  if refactor ~initial:true st then Some st else None

(* The cold start under structural bounds [lo]/[hi]: every structural
   nonbasic on its bound nearer zero ([place] from [Free_zero]) and
   each row's slack basic, except where the slack would start out of
   range: there an artificial column is basic instead and the slack
   nonbasic on its violated bound. *)
let build_state cp stats lu ~lo ~hi =
  let m = cp.m and n = cp.n in
  let slack_val = Array.copy cp.b in
  for j = 0 to n - 1 do
    let v = snd (place Free_zero ~lo:lo.(j) ~hi:hi.(j)) in
    if v <> 0.0 then begin
      let idx, vals = cp.cols.(j) in
      for k = 0 to Array.length idx - 1 do
        slack_val.(idx.(k)) <- slack_val.(idx.(k)) -. (vals.(k) *. v)
      done
    end
  done;
  let art_rows =
    List.filter
      (fun i ->
        let s = slack_val.(i) in
        s < cp.slack_lo.(i) -. feas_tol || s > cp.slack_hi.(i) +. feas_tol)
      (List.init m Fun.id)
    |> Array.of_list
  in
  let nt0 = n + m in
  let nt = nt0 + Array.length art_rows in
  (* an artificial absorbs its row's excess over the slack's range, or
     the shortfall under it *)
  let all_cols =
    Array.init nt (fun j ->
        if j < nt0 then cp.cols.(j)
        else begin
          let i = art_rows.(j - nt0) in
          let sign = if slack_val.(i) > cp.slack_hi.(i) then 1.0 else -1.0 in
          ([| i |], [| sign |])
        end)
  in
  let basis = Array.init m (fun i -> n + i) in
  Array.iteri (fun k i -> basis.(i) <- nt0 + k) art_rows;
  make_state cp stats lu ~all_cols ~art_hi:infinity ~lo ~hi
    ~stat:(Array.make nt Free_zero) ~basis

let default_max_iter cp = 20000 + (60 * (cp.m + cp.n))

(* --- sessions: every solve is a session solve --- *)

(* A basis snapshot: everything but the bounds and the factorisation.
   [b_cols] keeps the artificial columns of the state's phase 1 (pinned
   at zero since), so a snapshot can name one of them as basic. *)
type saved = {
  b_cols : (int array * float array) array;
  b_basis : int array;
  b_stat : vstat array;
  b_dual_c : float array option;
}

type basis = saved option

type session = {
  scp : compiled;
  s_lo : float array;               (* current structural bounds *)
  s_hi : float array;
  mutable sstate : state option;    (* factorised basis, or None *)
  mutable pending : saved option;
      (* a restored basis, installed over the bounds of the next solve *)
  mutable dual_c : float array option;
      (* structural phase-2 cost of the last solve that ended [Optimal]
         (kept by one that proved infeasibility by dual pivots): the
         retained basis' reduced costs are dual feasible for it *)
  mutable inverted : int;           (* #vars with lo > hi *)
  mutable solves_since_refactor : int;
  mutable restored : bool;          (* this solve started from a snapshot *)
  stats : session_stats;
  slu : Linalg.Lu.t;
      (* the LU workspace of every state this session builds; a new
         state refactorises it in place, so at most one state is live *)
}

let create_session ?lo ?hi cp =
  let s_lo = Array.copy (Option.value lo ~default:cp.model_lo) in
  let s_hi = Array.copy (Option.value hi ~default:cp.model_hi) in
  if Array.length s_lo <> cp.n || Array.length s_hi <> cp.n then
    invalid_arg "Simplex.create_session: bounds length mismatch";
  if Array.exists Float.is_nan s_lo || Array.exists Float.is_nan s_hi then
    invalid_arg "Simplex.create_session: NaN bound";
  let inverted = ref 0 in
  Array.iteri (fun j l -> if l > s_hi.(j) then incr inverted) s_lo;
  { scp = cp; s_lo; s_hi; sstate = None; pending = None; dual_c = None;
    inverted = !inverted; solves_since_refactor = 0; restored = false;
    stats = { solves = 0; cold_solves = 0; warm_solves = 0; fallbacks = 0;
              total_pivots = 0; audit_mismatches = 0; lu_rejections = 0 };
    slu = Linalg.Lu.create cp.m }

let session_stats sn = sn.stats

let session_bounds sn = (Array.copy sn.s_lo, Array.copy sn.s_hi)

let forget sn =
  sn.sstate <- None;
  sn.dual_c <- None

let set_var_bounds sn j ~lo ~hi =
  if j < 0 || j >= sn.scp.n then
    invalid_arg "Simplex.set_var_bounds: variable out of range";
  if Float.is_nan lo || Float.is_nan hi then
    invalid_arg "Simplex.set_var_bounds: NaN bound";
  if sn.s_lo.(j) <> lo || sn.s_hi.(j) <> hi then begin
    let was_inverted = sn.s_lo.(j) > sn.s_hi.(j) in
    sn.s_lo.(j) <- lo;
    sn.s_hi.(j) <- hi;
    let now_inverted = lo > hi in
    if was_inverted <> now_inverted then
      sn.inverted <- sn.inverted + (if now_inverted then 1 else -1);
    match sn.sstate with
    | None -> ()
    | Some st ->
        st.lo.(j) <- lo;
        st.hi.(j) <- hi;
        (match st.stat.(j) with
         | Basic -> ()  (* xb may now violate; the dual phase repairs it *)
         | At_lower | At_upper | Free_zero ->
             (* nonbasic variables ride along with their bound *)
             let old_v = st.value.(j) in
             let stat', v' = place st.stat.(j) ~lo ~hi in
             st.stat.(j) <- stat';
             st.value.(j) <- v';
             let dv = v' -. old_v in
             if dv <> 0.0 then begin
               (* xb -= B^-1 A_j dv : basics absorb the bound shift *)
               ftran st st.all_cols.(j);
               for i = 0 to st.cp.m - 1 do
                 st.xb.(i) <- st.xb.(i) -. (st.y.(i) *. dv)
               done
             end)
  end

let set_bounds sn ~lo ~hi =
  if Array.length lo <> sn.scp.n || Array.length hi <> sn.scp.n then
    invalid_arg "Simplex.set_bounds: bounds length mismatch";
  for j = 0 to sn.scp.n - 1 do
    if sn.s_lo.(j) <> lo.(j) || sn.s_hi.(j) <> hi.(j) then
      set_var_bounds sn j ~lo:lo.(j) ~hi:hi.(j)
  done

let snapshot sn =
  match (sn.pending, sn.sstate) with
  | (Some _ as b), _ -> b
  | None, None -> None
  | None, Some st ->
      Some
        { b_cols = st.all_cols; b_basis = Array.copy st.basis;
          b_stat = Array.copy st.stat; b_dual_c = sn.dual_c }

(* The retained state is dropped at once, so bound changes before the
   next solve cost nothing; that solve rebuilds the state from the
   snapshot and its own bounds alone. *)
let restore sn b =
  forget sn;
  sn.pending <- b

(* Rebuild a solver state from snapshot [b] under the session's current
   bounds: nonbasic values from the status flags, a fresh factorisation
   and basic values recomputed from scratch — no eta file or
   incrementally updated value survives from any earlier solve.  A
   basis the LU rejects leaves no state (the solve then runs cold). *)
let install sn b =
  sn.solves_since_refactor <- 0;
  sn.restored <- true;
  match
    make_state sn.scp sn.stats sn.slu ~all_cols:b.b_cols ~art_hi:0.0 ~lo:sn.s_lo
      ~hi:sn.s_hi ~stat:(Array.copy b.b_stat) ~basis:(Array.copy b.b_basis)
  with
  | Some st ->
      sn.sstate <- Some st;
      sn.dual_c <- b.b_dual_c
  | None -> ()

let infeasible ~pivots n =
  { status = Infeasible; obj = nan; x = Array.make n nan; pivots;
    duals = [||] }

(* A solve that ended short of an optimum, at [st]'s current point. *)
let stopped st status ~pivots =
  { status; obj = nan; x = extract_x st; pivots; duals = [||] }

(* The phase-2 cost of structural costs [c] over all of [st]'s
   columns. *)
let full_cost st c =
  let cost = Array.make st.nt 0.0 in
  Array.blit c 0 cost 0 st.cp.n;
  cost

(* Primal phase 2 of [prm] from the primal-feasible basis of [st], then
   what every solve ends with: the basis is retained after [Optimal]
   (dual feasible for [prm]) and [Unbounded] (still primal feasible; a
   later objective may be bounded), dropped otherwise, and an optimum
   is read from the final basis.  A cold solve always refactorises
   there; a warm one when due — a restored basis, the adaptive
   staleness triggers, or [session_solves_cap] solves since the last,
   which bounds drift of the incrementally maintained xb.  A restored
   solve so reads its value from the final basis alone, not from the
   pivots that led there (an incremental xb can leave 1e-19 where a
   cold solve reads an exact 0, and a sign decided there moves the
   certifier's later encodings).  [p0] is the session's pivot count
   when this solve's path began. *)
let finish sn st prm ~cold ~p0 ~max_iter =
  let cost = full_cost st prm.pc in
  let outcome =
    if cold then begin
      Obs.Metrics.add m_phase2 1;
      Obs.Trace.with_span "simplex.phase2" (fun () ->
          run_phase st cost max_iter)
    end
    else run_phase st cost max_iter
  in
  let status =
    match outcome with
    | `Optimal ->
        sn.solves_since_refactor <- sn.solves_since_refactor + 1;
        let due =
          cold || sn.restored || basis_stale st
          || sn.solves_since_refactor >= session_solves_cap
        in
        if due && not (refactor st) then Iteration_limit
        else begin
          if due then sn.solves_since_refactor <- 0;
          Optimal
        end
    | `Unbounded -> Unbounded
    | `Iteration_limit -> Iteration_limit
  in
  let pivots = sn.stats.total_pivots - p0 in
  match status with
  | Optimal ->
      sn.sstate <- Some st;
      sn.dual_c <- Some (Array.copy prm.pc);
      let raw = objective_value st cost +.
                (if prm.pnegate then -.prm.pconst else prm.pconst) in
      let obj = if prm.pnegate then -.raw else raw in
      compute_pi st cost;
      { status; obj; x = extract_x st; pivots; duals = Array.copy st.pi }
  | Unbounded ->
      sn.sstate <- Some st;
      sn.dual_c <- None;
      stopped st status ~pivots
  | Infeasible | Iteration_limit ->
      forget sn;
      stopped st status ~pivots

(* Two-phase solve from [build_state]'s basis under the session's
   bounds; phase 1 runs only when that basis holds artificials. *)
let cold sn prm ~max_iter =
  let cp = sn.scp and stats = sn.stats in
  stats.cold_solves <- stats.cold_solves + 1;
  Obs.Metrics.add m_cold 1;
  Obs.Trace.count "cold" 1;
  forget sn;
  sn.solves_since_refactor <- 0;
  let p0 = stats.total_pivots in
  let nt0 = cp.n + cp.m in
  match build_state cp stats sn.slu ~lo:sn.s_lo ~hi:sn.s_hi with
  | None -> infeasible ~pivots:0 cp.n
  | Some st when st.nt = nt0 -> finish sn st prm ~cold:true ~p0 ~max_iter
  | Some st -> (
      let cost = Array.init st.nt (fun j -> if j < nt0 then 0.0 else 1.0) in
      Obs.Metrics.add m_phase1 1;
      match
        Obs.Trace.with_span "simplex.phase1" (fun () ->
            run_phase st cost max_iter)
      with
      | `Optimal when objective_value st cost > 1e-6 ->
          infeasible ~pivots:(stats.total_pivots - p0) cp.n
      | `Optimal ->
          (* pin artificials to zero for phase 2 *)
          for j = nt0 to st.nt - 1 do
            st.lo.(j) <- 0.0;
            st.hi.(j) <- 0.0;
            if st.stat.(j) <> Basic then st.value.(j) <- 0.0
          done;
          finish sn st prm ~cold:true ~p0 ~max_iter
      | `Unbounded ->
          (* phase-1 objective is bounded below by 0: numerically
             impossible, report infeasible conservatively *)
          infeasible ~pivots:(stats.total_pivots - p0) cp.n
      | `Iteration_limit ->
          stopped st Iteration_limit ~pivots:(stats.total_pivots - p0))

(* In audit mode, every result served from a retained basis is
   cross-checked against [reference ()], a cold solve of the same query;
   on disagreement the retained basis is dropped and the cold result
   returned, so a warm-start bug cannot corrupt a certification. *)
let audit_cross_check sn ~reference res =
  if not !audit_mode then res
  else begin
    let cold_sol = reference () in
    let agree =
      match (res.status, cold_sol.status) with
      | Optimal, Optimal ->
          Float.abs (res.obj -. cold_sol.obj)
          <= 5e-5 *. Float.max 1.0 (Float.abs cold_sol.obj)
      | a, b -> a = b
    in
    if agree then res
    else begin
      sn.stats.audit_mismatches <- sn.stats.audit_mismatches + 1;
      forget sn;
      Printf.eprintf
        "[audit] Simplex warm solve disagrees with cold re-solve \
         (warm: obj %g, cold: obj %g); dropping the retained basis\n%!"
        res.obj cold_sol.obj;
      cold_sol
    end
  end

(* A solve from the retained basis [st]: an objective-only hot start
   (re-price, primal phase 2) while the basis is primal feasible under
   the current bounds, else a bound-change restart (dual phase under
   the cost the basis is dual feasible for, then primal phase 2).  A
   restart that cannot run or stalls falls back to a cold solve, whose
   result counts the restart's pivots too. *)
let warm sn st prm ~max_iter ~reference =
  let stats = sn.stats in
  let p0 = stats.total_pivots in
  let served res =
    stats.warm_solves <- stats.warm_solves + 1;
    Obs.Metrics.add m_warm 1;
    Obs.Trace.count "warm" 1;
    audit_cross_check sn ~reference res
  in
  let fallback () =
    stats.fallbacks <- stats.fallbacks + 1;
    Obs.Metrics.add m_fallbacks 1;
    let wasted = stats.total_pivots - p0 in
    let res = cold sn prm ~max_iter in
    { res with pivots = res.pivots + wasted }
  in
  let feas = ref true in
  for i = 0 to st.cp.m - 1 do
    let bi = st.basis.(i) in
    if st.xb.(i) < st.lo.(bi) -. feas_tol
       || st.xb.(i) > st.hi.(bi) +. feas_tol
    then feas := false
  done;
  if !feas then served (finish sn st prm ~cold:false ~p0 ~max_iter)
  else
    match sn.dual_c with
    | None -> fallback ()
    | Some c -> (
        Obs.Metrics.add m_dual_restarts 1;
        Obs.Trace.count "dual_restarts" 1;
        match run_dual st (full_cost st c) max_iter with
        | `Feasible -> served (finish sn st prm ~cold:false ~p0 ~max_iter)
        | `Infeasible ->
            (* dual unbounded: no feasible point under these bounds; the
               basis stays dual feasible for [c] *)
            served (infeasible ~pivots:(stats.total_pivots - p0) st.cp.n)
        | `Iteration_limit -> fallback ())

let rec solve_session ?max_iter ?objective sn =
  Obs.Trace.with_span "simplex.solve" (fun () ->
      let cp = sn.scp in
      let prm = params_of_objective cp objective in
      let max_iter = Option.value max_iter ~default:(default_max_iter cp) in
      sn.stats.solves <- sn.stats.solves + 1;
      Obs.Metrics.add m_solves 1;
      let res =
        if sn.inverted > 0 then infeasible ~pivots:0 cp.n
        else begin
          sn.restored <- false;
          Option.iter
            (fun b ->
              sn.pending <- None;
              install sn b)
            sn.pending;
          match sn.sstate with
          | None -> cold sn prm ~max_iter
          | Some st ->
              warm sn st prm ~max_iter ~reference:(fun () ->
                  solve_compiled ~max_iter ?objective cp ~lo:sn.s_lo
                    ~hi:sn.s_hi)
        end
      in
      Obs.Metrics.add m_pivots res.pivots;
      Obs.Trace.count "pivots" res.pivots;
      res)

(* A fresh session's first solve is cold, so the audit reference above
   never recurses further. *)
and solve_compiled ?max_iter ?objective cp ~lo ~hi =
  solve_session ?max_iter ?objective (create_session ~lo ~hi cp)

let solve ?max_iter model =
  solve_session ?max_iter (create_session (compile model))
