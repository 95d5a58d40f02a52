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

(* Opt-in FTRAN/BTRAN wall-time accounting for the bench harness; the
   accumulators are plain refs, so only meaningful single-domain. *)
let time_kernels = ref false
let ftran_seconds = ref 0.0
let btran_seconds = ref 0.0

let reset_kernel_times () =
  ftran_seconds := 0.0;
  btran_seconds := 0.0

let kernel_times () = (!ftran_seconds, !btran_seconds)

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

(* Mutable solver state.  Variables are indexed 0..nt-1 where
   [0, n)        structural,
   [n, n+m)      slacks,
   [n+m, nt)     artificials (phase 1 only; fixed to 0 afterwards).
   The basis is held as a sparse LU factorisation with its eta file
   ([Linalg.Lu]), behind FTRAN/BTRAN. *)
type state = {
  cp : compiled;
  nt : int;
  all_cols : (int array * float array) array;
  lo : float array;
  hi : float array;
  stat : vstat array;
  value : float array;        (* nonbasic values; basics live in xb *)
  basis : int array;          (* length m, var in each row *)
  pos : int array;            (* var -> basic row, or -1 *)
  mutable lu : Linalg.Lu.t;
  xb : float array;           (* basic variable values *)
  y : float array;            (* scratch: entering column in basis coords *)
  pi : float array;           (* scratch: simplex multipliers *)
  cb : float array;           (* scratch: basic costs, basis-row order *)
  rho : float array;          (* scratch: one row of B^-1 (dual pricing) *)
  mutable pivots : int;
  mutable refactors : int;         (* non-initial refactorisations *)
  mutable eta_updates : int;       (* eta terms pushed *)
  mutable lu_rejections : int;     (* bases the LU declined *)
}

(* A state of [cp] over [all_cols] and [basis], not yet factorised: its
   LU is that of the empty basis until [refactor ~initial:true] runs
   (and stays so when the model has no rows). *)
let make_state cp ~nt ~all_cols ~lo ~hi ~stat ~value ~basis ~pos =
  let m = cp.m in
  { cp; nt; all_cols; lo; hi; stat; value; basis; pos;
    lu = Option.get (Linalg.Lu.factor ~m:0 [||]);
    xb = Array.make m 0.0; y = Array.make m 0.0; pi = Array.make m 0.0;
    cb = Array.make m 0.0; rho = Array.make m 0.0;
    pivots = 0; refactors = 0; eta_updates = 0; lu_rejections = 0 }

let ftran st col =
  let t0 = if !time_kernels then Obs.Clock.now () else 0.0 in
  let idx, vals = col in
  Linalg.Lu.ftran_pair st.lu idx vals st.y;
  Obs.Metrics.add m_ftrans 1;
  if !time_kernels then
    ftran_seconds := !ftran_seconds +. (Obs.Clock.now () -. t0)

(* pi = cB^T B^-1 for the given full cost vector *)
let compute_pi st cost =
  let t0 = if !time_kernels then Obs.Clock.now () else 0.0 in
  for i = 0 to st.cp.m - 1 do
    st.cb.(i) <- cost.(st.basis.(i))
  done;
  Linalg.Lu.btran_dense st.lu st.cb st.pi;
  Obs.Metrics.add m_btrans 1;
  if !time_kernels then
    btran_seconds := !btran_seconds +. (Obs.Clock.now () -. t0)

(* Row [r] of B^-1, for the dual-simplex pricing row, in the [rho]
   scratch: valid until the next kernel call on [st]. *)
let basis_row st r =
  let t0 = if !time_kernels then Obs.Clock.now () else 0.0 in
  Linalg.Lu.btran_unit st.lu r st.rho;
  Obs.Metrics.add m_btrans 1;
  if !time_kernels then
    btran_seconds := !btran_seconds +. (Obs.Clock.now () -. t0);
  st.rho

(* Fold a pivot on basic row [r] into the factorisation as an eta
   term; [st.y] must hold the FTRAN of the entering column (the
   ratio-test vector). *)
let basis_replace st r =
  let quality = Linalg.Lu.push_eta st.lu ~r ~y:st.y in
  st.eta_updates <- st.eta_updates + 1;
  Obs.Metrics.add m_eta_updates 1;
  if quality < stab_tol then Linalg.Lu.flag_unstable st.lu;
  st.pivots <- st.pivots + 1

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
   LU declines the basis as singular to working precision; the caller
   then abandons the solve, or the state if this was its first
   factorisation. *)
let refactor ?(initial = false) st =
  let m = st.cp.m in
  if m = 0 then true
  else begin
    if not initial then begin
      st.refactors <- st.refactors + 1;
      Obs.Metrics.add m_refactors 1;
      if Obs.Trace.enabled () then Obs.Trace.count "refactor" 1
    end;
    match
      Linalg.Lu.factor ~m (Array.init m (fun i -> st.all_cols.(st.basis.(i))))
    with
    | Some lu ->
        Obs.Metrics.add m_lu_factors 1;
        st.lu <- lu;
        recompute_xb st;
        true
    | None ->
        st.lu_rejections <- st.lu_rejections + 1;
        Obs.Metrics.add m_lu_rejections 1;
        false
  end

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
          let start =
            match st.stat.(j) with
            | At_lower -> st.lo.(j)
            | At_upper -> st.hi.(j)
            | Free_zero -> 0.0
            | Basic -> assert false
          in
          let new_val = start +. (sigma *. t) in
          if !leave < 0 then begin
            (* bound flip: entering variable hits its own other bound *)
            st.value.(j) <- new_val;
            st.stat.(j) <- (if sigma > 0.0 then At_upper else At_lower)
          end
          else begin
            let r = !leave in
            let leaving = st.basis.(r) in
            let d_r = -.sigma *. st.y.(r) in
            st.stat.(leaving) <- (if d_r < 0.0 then At_lower else At_upper);
            st.value.(leaving) <-
              (if d_r < 0.0 then st.lo.(leaving) else st.hi.(leaving));
            st.pos.(leaving) <- -1;
            st.basis.(r) <- j;
            st.pos.(j) <- r;
            st.stat.(j) <- Basic;
            st.value.(j) <- 0.0;
            st.xb.(r) <- new_val;
            basis_replace st r
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
   the primal has no feasible point) or [`Iteration_limit]. *)
let run_dual st cost max_iter =
  let m = st.cp.m in
  if m = 0 then `Feasible
  else begin
    let iter = ref 0 in
    let result = ref None in
    while !result = None do
      if !iter >= max_iter || (basis_stale st && not (refactor st)) then
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
              let v_q =
                match st.stat.(q) with
                | At_lower -> st.lo.(q)
                | At_upper -> st.hi.(q)
                | Free_zero -> 0.0
                | Basic -> assert false
              in
              for i = 0 to m - 1 do
                st.xb.(i) <- st.xb.(i) -. (st.y.(i) *. t)
              done;
              st.stat.(bi) <- (if below then At_lower else At_upper);
              st.value.(bi) <- target;
              st.pos.(bi) <- -1;
              st.basis.(r) <- q;
              st.pos.(q) <- r;
              st.stat.(q) <- Basic;
              st.value.(q) <- 0.0;
              st.xb.(r) <- v_q +. t;
              basis_replace st r
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

(* Build a fresh solver state for [cp] under structural bounds [lo]/[hi]:
   slacks basic, structural variables at their gentlest bound,
   artificial columns patching any row whose slack starts out of range.
   Returns [None] if the initial basis cannot be factorised. *)
let build_state cp ~lo ~hi =
  let m = cp.m and n = cp.n in
  let nt0 = n + m in
  let lo_all = Array.make nt0 0.0 and hi_all = Array.make nt0 0.0 in
  Array.blit lo 0 lo_all 0 n;
  Array.blit hi 0 hi_all 0 n;
  Array.blit cp.slack_lo 0 lo_all n m;
  Array.blit cp.slack_hi 0 hi_all n m;
  let stat = Array.make nt0 At_lower in
  let value = Array.make nt0 0.0 in
  for j = 0 to n - 1 do
    if lo_all.(j) > neg_infinity then begin
      (* prefer the bound closer to zero for a gentler start *)
      if hi_all.(j) < infinity
         && Float.abs hi_all.(j) < Float.abs lo_all.(j)
      then begin stat.(j) <- At_upper; value.(j) <- hi_all.(j) end
      else begin stat.(j) <- At_lower; value.(j) <- lo_all.(j) end
    end
    else if hi_all.(j) < infinity then begin
      stat.(j) <- At_upper; value.(j) <- hi_all.(j)
    end
    else begin stat.(j) <- Free_zero; value.(j) <- 0.0 end
  done;
  (* slack basic values with identity basis *)
  let slack_val = Array.copy cp.b in
  for j = 0 to n - 1 do
    if value.(j) <> 0.0 then begin
      let idx, vals = cp.cols.(j) in
      for k = 0 to Array.length idx - 1 do
        slack_val.(idx.(k)) <- slack_val.(idx.(k)) -. (vals.(k) *. value.(j))
      done
    end
  done;
  (* rows whose slack violates its bounds need an artificial *)
  let artificials = ref [] in
  for i = 0 to m - 1 do
    let s = slack_val.(i) in
    if s < cp.slack_lo.(i) -. feas_tol || s > cp.slack_hi.(i) +. feas_tol
    then artificials := i :: !artificials
  done;
  let art_rows = Array.of_list (List.rev !artificials) in
  let n_art = Array.length art_rows in
  let nt = nt0 + n_art in
  let all_cols =
    Array.init nt (fun j ->
        if j < nt0 then cp.cols.(j)
        else begin
          let i = art_rows.(j - nt0) in
          let s = slack_val.(i) in
          let clamped =
            Float.max cp.slack_lo.(i) (Float.min cp.slack_hi.(i) s)
          in
          let sign = if s -. clamped >= 0.0 then 1.0 else -1.0 in
          ([| i |], [| sign |])
        end)
  in
  let lo_full = Array.make nt 0.0 and hi_full = Array.make nt infinity in
  Array.blit lo_all 0 lo_full 0 nt0;
  Array.blit hi_all 0 hi_full 0 nt0;
  let stat_full = Array.make nt At_lower in
  Array.blit stat 0 stat_full 0 nt0;
  let value_full = Array.make nt 0.0 in
  Array.blit value 0 value_full 0 nt0;
  (* basis: slack per row, replaced by the artificial where infeasible;
     the displaced slack goes nonbasic at its nearest bound *)
  let basis = Array.init m (fun i -> n + i) in
  Array.iteri
    (fun k i ->
      basis.(i) <- nt0 + k;
      let s = slack_val.(i) in
      let clamped = Float.max cp.slack_lo.(i) (Float.min cp.slack_hi.(i) s) in
      stat_full.(n + i) <-
        (if clamped = cp.slack_lo.(i) then At_lower else At_upper);
      value_full.(n + i) <- clamped)
    art_rows;
  let pos = Array.make nt (-1) in
  Array.iteri (fun i j -> pos.(j) <- i; stat_full.(j) <- Basic) basis;
  let st =
    make_state cp ~nt ~all_cols ~lo:lo_full ~hi:hi_full ~stat:stat_full
      ~value:value_full ~basis ~pos
  in
  if refactor ~initial:true st then Some (st, n_art) else None

(* Two-phase cold solve on a freshly built state. *)
let solve_on_state st ~n_art ~prm ~max_iter =
  let cp = st.cp in
  let n = cp.n and nt = st.nt in
  let nt0 = n + cp.m in
  let cost_full = Array.make nt 0.0 in
  let finish status =
    { status; obj = nan; x = extract_x st; pivots = st.pivots; duals = [||] }
  in
  let phase2 () =
    Array.fill cost_full 0 nt 0.0;
    Array.blit prm.pc 0 cost_full 0 n;
    Obs.Metrics.add m_phase2 1;
    match
      Obs.Trace.with_span "simplex.phase2" (fun () ->
          run_phase st cost_full max_iter)
    with
    | `Optimal ->
        (* the optimum is read from a fresh factorisation *)
        if refactor st then begin
          let raw = objective_value st cost_full +.
                    (if prm.pnegate then -.prm.pconst else prm.pconst) in
          let obj = if prm.pnegate then -.raw else raw in
          compute_pi st cost_full;
          { status = Optimal; obj; x = extract_x st; pivots = st.pivots;
            duals = Array.copy st.pi }
        end
        else finish Iteration_limit
    | `Unbounded -> finish Unbounded
    | `Iteration_limit -> finish Iteration_limit
  in
  if n_art = 0 then phase2 ()
  else begin
    for k = 0 to n_art - 1 do
      cost_full.(nt0 + k) <- 1.0
    done;
    Obs.Metrics.add m_phase1 1;
    match
      Obs.Trace.with_span "simplex.phase1" (fun () ->
          run_phase st cost_full max_iter)
    with
    | `Unbounded ->
        (* phase-1 objective is bounded below by 0: numerically impossible,
           report infeasible conservatively *)
        finish Infeasible
    | `Iteration_limit -> finish Iteration_limit
    | `Optimal ->
        let infeas = objective_value st cost_full in
        if infeas > 1e-6 then finish Infeasible
        else begin
          (* pin artificials to zero for phase 2 *)
          for k = 0 to n_art - 1 do
            let j = nt0 + k in
            st.lo.(j) <- 0.0;
            st.hi.(j) <- 0.0;
            if st.stat.(j) <> Basic then st.value.(j) <- 0.0
          done;
          phase2 ()
        end
  end

let default_max_iter cp = 20000 + (60 * (cp.m + cp.n))

let solve_compiled_inner ?max_iter ?objective cp ~lo ~hi =
  let prm = params_of_objective cp objective in
  let n = cp.n in
  if Array.length lo <> n || Array.length hi <> n then
    invalid_arg "Simplex.solve_compiled: bounds length mismatch";
  let max_iter =
    match max_iter with Some k -> k | None -> default_max_iter cp
  in
  let fail_bounds = ref false in
  Array.iteri (fun j l -> if l > hi.(j) then fail_bounds := true) lo;
  if !fail_bounds then
    { status = Infeasible; obj = nan; x = Array.make n nan; pivots = 0;
      duals = [||] }
  else
    match build_state cp ~lo ~hi with
    | None ->
        { status = Infeasible; obj = nan; x = Array.make n nan; pivots = 0;
          duals = [||] }
    | Some (st, n_art) -> solve_on_state st ~n_art ~prm ~max_iter

let solve_compiled ?max_iter ?objective cp ~lo ~hi =
  Obs.Trace.with_span "simplex.solve" (fun () ->
      let res = solve_compiled_inner ?max_iter ?objective cp ~lo ~hi in
      Obs.Metrics.add m_solves 1;
      Obs.Metrics.add m_cold 1;
      Obs.Metrics.add m_pivots res.pivots;
      Obs.Trace.count "pivots" res.pivots;
      Obs.Trace.count "cold" 1;
      res)

let solve ?max_iter model =
  let cp = compile model in
  let lo, hi = default_bounds cp in
  solve_compiled ?max_iter cp ~lo ~hi

(* --- persistent sessions: basis reuse across solves --- *)

type session_stats = {
  mutable solves : int;
  mutable cold_solves : int;
  mutable warm_solves : int;
  mutable dual_restarts : int;
  mutable fallbacks : int;
  mutable total_pivots : int;
  mutable audit_mismatches : int;
  mutable refactors : int;
  mutable eta_updates : int;
  mutable lu_rejections : int;
}

(* A basis snapshot: everything but the bounds and the factorisation.
   [b_cols] keeps the artificial columns of the state's phase 1 (pinned
   at zero since), so a snapshot can name one of them as basic. *)
type saved = {
  b_cols : (int array * float array) array;
  b_basis : int array;
  b_stat : vstat array;
  b_last_c : float array option;
  b_dual_ok : bool;
}

type basis = saved option

type session = {
  scp : compiled;
  s_lo : float array;               (* current structural bounds *)
  s_hi : float array;
  mutable sstate : state option;    (* factorised basis, or None *)
  mutable pending : saved option;
      (* a restored basis, installed over the bounds of the next solve *)
  mutable last_c : float array option;
      (* structural phase-2 cost of the last solve that ended [Optimal]
         (or proved infeasibility by dual pivots); the basis' reduced
         costs are dual feasible for it *)
  mutable dual_ok : bool;
  mutable inverted : int;           (* #vars with lo > hi *)
  mutable solves_since_refactor : int;
  mutable restored : bool;          (* this solve started from a snapshot *)
  stats : session_stats;
}

let create_session ?lo ?hi cp =
  let dlo, dhi = default_bounds cp in
  let s_lo = match lo with Some a -> Array.copy a | None -> dlo in
  let s_hi = match hi with Some a -> Array.copy a | None -> dhi in
  if Array.length s_lo <> cp.n || Array.length s_hi <> cp.n then
    invalid_arg "Simplex.create_session: bounds length mismatch";
  let inverted = ref 0 in
  Array.iteri (fun j l -> if l > s_hi.(j) then incr inverted) s_lo;
  { scp = cp; s_lo; s_hi; sstate = None; pending = None; last_c = None;
    dual_ok = false;
    inverted = !inverted; solves_since_refactor = 0; restored = false;
    stats = { solves = 0; cold_solves = 0; warm_solves = 0;
              dual_restarts = 0; fallbacks = 0; total_pivots = 0;
              audit_mismatches = 0; refactors = 0; eta_updates = 0;
              lu_rejections = 0 } }

let session_stats sn = sn.stats

let session_bounds sn = (Array.copy sn.s_lo, Array.copy sn.s_hi)

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
          b_stat = Array.copy st.stat; b_last_c = sn.last_c;
          b_dual_ok = sn.dual_ok }

(* The retained state is dropped at once, so bound changes before the
   next solve cost nothing; that solve rebuilds the state from the
   snapshot and its own bounds alone. *)
let restore sn b =
  sn.sstate <- None;
  sn.dual_ok <- false;
  sn.last_c <- None;
  sn.pending <- b

(* Rebuild a solver state from snapshot [b] under the session's current
   bounds: nonbasic values from the status flags, a fresh factorisation
   and basic values recomputed from scratch — no eta file or
   incrementally updated value survives from any earlier solve.  A
   basis the LU rejects leaves no state (the solve then runs cold). *)
let install sn b =
  let cp = sn.scp in
  let n = cp.n and m = cp.m in
  let nt = Array.length b.b_cols in
  let lo = Array.make nt 0.0 and hi = Array.make nt 0.0 in
  Array.blit sn.s_lo 0 lo 0 n;
  Array.blit sn.s_hi 0 hi 0 n;
  Array.blit cp.slack_lo 0 lo n m;
  Array.blit cp.slack_hi 0 hi n m;
  let stat = Array.copy b.b_stat and value = Array.make nt 0.0 in
  for j = 0 to nt - 1 do
    if stat.(j) <> Basic then begin
      let s, v = place stat.(j) ~lo:lo.(j) ~hi:hi.(j) in
      stat.(j) <- s;
      value.(j) <- v
    end
  done;
  let basis = Array.copy b.b_basis in
  let pos = Array.make nt (-1) in
  Array.iteri (fun i j -> pos.(j) <- i) basis;
  let st =
    make_state cp ~nt ~all_cols:b.b_cols ~lo ~hi ~stat ~value ~basis ~pos
  in
  sn.solves_since_refactor <- 0;
  sn.restored <- true;
  if refactor ~initial:true st then begin
    sn.sstate <- Some st;
    sn.dual_ok <- b.b_dual_ok;
    sn.last_c <- b.b_last_c
  end
  else sn.stats.lu_rejections <- sn.stats.lu_rejections + 1

let array_eq a b =
  Array.length a = Array.length b
  &&
  (let ok = ref true in
   Array.iteri (fun i v -> if v <> b.(i) then ok := false) a;
   !ok)

let solve_session_inner ?max_iter ?objective sn =
  let cp = sn.scp in
  let prm = params_of_objective cp objective in
  let n = cp.n and m = cp.m in
  let max_iter =
    match max_iter with Some k -> k | None -> default_max_iter cp
  in
  sn.stats.solves <- sn.stats.solves + 1;
  if sn.inverted > 0 then
    { status = Infeasible; obj = nan; x = Array.make n nan; pivots = 0;
      duals = [||] }
  else begin
    sn.restored <- false;
    (match sn.pending with
     | Some b ->
         sn.pending <- None;
         install sn b
     | None -> ());
    (* In audit mode, every result served from a retained basis is
       cross-checked against a cold solve of the same query; on
       disagreement the retained basis is dropped and the cold result
       returned, so a warm-start bug cannot corrupt a certification. *)
    let audit_cross_check res =
      if not !audit_mode then res
      else begin
        let cold_sol =
          solve_compiled ~max_iter ?objective cp ~lo:sn.s_lo ~hi:sn.s_hi
        in
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
          sn.sstate <- None;
          sn.dual_ok <- false;
          sn.last_c <- None;
          Printf.eprintf
            "[audit] Simplex warm solve disagrees with cold re-solve \
             (warm: obj %g, cold: obj %g); dropping the retained basis\n%!"
            res.obj cold_sol.obj;
          cold_sol
        end
      end
    in
    let cold () =
      sn.stats.cold_solves <- sn.stats.cold_solves + 1;
      sn.sstate <- None;
      sn.dual_ok <- false;
      sn.last_c <- None;
      sn.solves_since_refactor <- 0;
      match build_state cp ~lo:sn.s_lo ~hi:sn.s_hi with
      | None ->
          { status = Infeasible; obj = nan; x = Array.make n nan; pivots = 0;
            duals = [||] }
      | Some (st, n_art) ->
          let res = solve_on_state st ~n_art ~prm ~max_iter in
          sn.stats.total_pivots <- sn.stats.total_pivots + st.pivots;
          sn.stats.refactors <- sn.stats.refactors + st.refactors;
          sn.stats.eta_updates <- sn.stats.eta_updates + st.eta_updates;
          sn.stats.lu_rejections <-
            sn.stats.lu_rejections + st.lu_rejections;
          (match res.status with
           | Optimal ->
               sn.sstate <- Some st;
               sn.dual_ok <- true;
               sn.last_c <- Some (Array.copy prm.pc)
           | Unbounded ->
               (* the basis is still primal feasible; a later objective
                  may be bounded *)
               sn.sstate <- Some st
           | Infeasible | Iteration_limit -> ());
          res
    in
    match sn.sstate with
    | None -> cold ()
    | Some st ->
        let cost_full = Array.make st.nt 0.0 in
        Array.blit prm.pc 0 cost_full 0 n;
        let pivots0 = st.pivots in
        let refactors0 = st.refactors and etas0 = st.eta_updates in
        let rejections0 = st.lu_rejections in
        let charge () =
          sn.stats.total_pivots <-
            sn.stats.total_pivots + (st.pivots - pivots0);
          sn.stats.refactors <- sn.stats.refactors + (st.refactors - refactors0);
          sn.stats.eta_updates <-
            sn.stats.eta_updates + (st.eta_updates - etas0);
          sn.stats.lu_rejections <-
            sn.stats.lu_rejections + (st.lu_rejections - rejections0)
        in
        let limit () =
          charge ();
          sn.sstate <- None;
          sn.dual_ok <- false;
          sn.last_c <- None;
          { status = Iteration_limit; obj = nan; x = extract_x st;
            pivots = st.pivots - pivots0; duals = [||] }
        in
        let primal_finish () =
          match run_phase st cost_full max_iter with
          | `Optimal ->
              sn.solves_since_refactor <- sn.solves_since_refactor + 1;
              (* The adaptive staleness triggers, plus a generous safety
                 cap bounding drift of the incrementally maintained xb.
                 A restored solve always ends on a fresh factorisation,
                 as a cold solve does, so its value is read from the
                 final basis alone, not from the pivots that led there
                 (an incremental xb can leave 1e-19 where a cold solve
                 reads an exact 0, and a sign decided there moves the
                 certifier's later encodings). *)
              let due =
                sn.restored || basis_stale st
                || sn.solves_since_refactor >= session_solves_cap
              in
              if due && not (refactor st) then limit ()
              else begin
                if due then sn.solves_since_refactor <- 0;
                sn.dual_ok <- true;
                sn.last_c <- Some (Array.copy prm.pc);
                let raw = objective_value st cost_full +.
                          (if prm.pnegate then -.prm.pconst else prm.pconst) in
                let obj = if prm.pnegate then -.raw else raw in
                compute_pi st cost_full;
                charge ();
                { status = Optimal; obj; x = extract_x st;
                  pivots = st.pivots - pivots0; duals = Array.copy st.pi }
              end
          | `Unbounded ->
              sn.dual_ok <- false;
              sn.last_c <- None;
              charge ();
              { status = Unbounded; obj = nan; x = extract_x st;
                pivots = st.pivots - pivots0; duals = [||] }
          | `Iteration_limit -> limit ()
        in
        (* primal feasibility of the retained basis under current bounds *)
        let feas = ref true in
        for i = 0 to m - 1 do
          let bi = st.basis.(i) in
          if st.xb.(i) < st.lo.(bi) -. feas_tol
             || st.xb.(i) > st.hi.(bi) +. feas_tol
          then feas := false
        done;
        if !feas then begin
          (* objective-only hot start: re-price, primal phase 2 *)
          sn.stats.warm_solves <- sn.stats.warm_solves + 1;
          audit_cross_check (primal_finish ())
        end
        else if sn.dual_ok then begin
          (* bound-change restart: dual phase under the last optimal
             cost (for which the basis is dual feasible), then primal
             phase 2 under the requested cost *)
          sn.stats.warm_solves <- sn.stats.warm_solves + 1;
          sn.stats.dual_restarts <- sn.stats.dual_restarts + 1;
          let dual_cost =
            match sn.last_c with
            | Some c0 when not (array_eq c0 prm.pc) ->
                let c = Array.make st.nt 0.0 in
                Array.blit c0 0 c 0 n;
                c
            | _ -> cost_full
          in
          match run_dual st dual_cost max_iter with
          | `Feasible -> audit_cross_check (primal_finish ())
          | `Infeasible ->
              (* dual unbounded: no feasible point under these bounds;
                 the basis stays dual feasible for [last_c] *)
              charge ();
              audit_cross_check
                { status = Infeasible; obj = nan; x = Array.make n nan;
                  pivots = st.pivots - pivots0; duals = [||] }
          | `Iteration_limit ->
              charge ();
              sn.stats.warm_solves <- sn.stats.warm_solves - 1;
              sn.stats.fallbacks <- sn.stats.fallbacks + 1;
              cold ()
        end
        else begin
          sn.stats.fallbacks <- sn.stats.fallbacks + 1;
          cold ()
        end
  end

let solve_session ?max_iter ?objective sn =
  Obs.Trace.with_span "simplex.solve" (fun () ->
      let st0 = sn.stats in
      let warm0 = st0.warm_solves
      and cold0 = st0.cold_solves
      and dual0 = st0.dual_restarts
      and fall0 = st0.fallbacks in
      let res = solve_session_inner ?max_iter ?objective sn in
      Obs.Metrics.add m_solves 1;
      Obs.Metrics.add m_pivots res.pivots;
      Obs.Metrics.add m_warm (st0.warm_solves - warm0);
      Obs.Metrics.add m_cold (st0.cold_solves - cold0);
      Obs.Metrics.add m_dual_restarts (st0.dual_restarts - dual0);
      Obs.Metrics.add m_fallbacks (st0.fallbacks - fall0);
      if Obs.Trace.enabled () then begin
        Obs.Trace.count "pivots" res.pivots;
        Obs.Trace.count "warm" (st0.warm_solves - warm0);
        Obs.Trace.count "cold" (st0.cold_solves - cold0);
        if st0.dual_restarts > dual0 then
          Obs.Trace.count "dual_restarts" (st0.dual_restarts - dual0)
      end;
      res)
