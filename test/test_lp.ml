(* Tests for the bounded-variable simplex solver, including a
   property-based comparison against exhaustive vertex enumeration on
   random 2-variable LPs. *)

module Model = Lp.Model
module Simplex = Lp.Simplex

let feq ?(eps = 1e-6) a b = Float.abs (a -. b) <= eps

let status_str = function
  | Simplex.Optimal -> "optimal"
  | Simplex.Infeasible -> "infeasible"
  | Simplex.Unbounded -> "unbounded"
  | Simplex.Iteration_limit -> "iteration-limit"

let check_status msg expected actual =
  if expected <> actual then
    Alcotest.failf "%s: expected %s, got %s" msg (status_str expected)
      (status_str actual)

let check_obj msg expected (sol : Simplex.solution) =
  check_status msg Simplex.Optimal sol.Simplex.status;
  if not (feq expected sol.Simplex.obj) then
    Alcotest.failf "%s: expected obj %.9g, got %.9g" msg expected
      sol.Simplex.obj

(* --- hand-crafted cases --- *)

let test_basic_max () =
  let m = Model.create () in
  let x = Model.add_var ~lo:0.0 ~hi:3.0 m in
  let y = Model.add_var ~lo:0.0 ~hi:5.0 m in
  Model.add_constr m [ (x, 1.0); (y, 1.0) ] Model.Le 4.0;
  Model.add_constr m [ (x, 1.0); (y, 3.0) ] Model.Le 6.0;
  Model.set_objective m Model.Maximize [ (x, 3.0); (y, 2.0) ];
  check_obj "max" 11.0 (Simplex.solve m)

let test_basic_min () =
  let m = Model.create () in
  let x = Model.add_var ~lo:0.0 ~hi:10.0 m in
  let y = Model.add_var ~lo:0.0 ~hi:10.0 m in
  Model.add_constr m [ (x, 1.0); (y, 2.0) ] Model.Ge 4.0;
  Model.add_constr m [ (x, 3.0); (y, 1.0) ] Model.Ge 6.0;
  Model.set_objective m Model.Minimize [ (x, 1.0); (y, 1.0) ];
  (* optimum at intersection x + 2y = 4, 3x + y = 6: x = 1.6, y = 1.2 *)
  check_obj "min" 2.8 (Simplex.solve m)

let test_equality () =
  let m = Model.create () in
  let x = Model.add_var ~lo:0.0 ~hi:10.0 m in
  let y = Model.add_var ~lo:0.0 ~hi:10.0 m in
  Model.add_constr m [ (x, 1.0); (y, 1.0) ] Model.Eq 5.0;
  Model.set_objective m Model.Maximize [ (x, 2.0); (y, 1.0) ];
  let sol = Simplex.solve m in
  check_obj "eq" 10.0 sol;
  Alcotest.(check bool) "x=5" true (feq sol.Simplex.x.(0) 5.0)

let test_infeasible_bounds () =
  let m = Model.create () in
  let x = Model.add_var ~lo:0.0 ~hi:3.0 m in
  Model.add_constr m [ (x, 1.0) ] Model.Ge 5.0;
  Model.set_objective m Model.Minimize [ (x, 1.0) ];
  check_status "infeasible" Simplex.Infeasible (Simplex.solve m).Simplex.status

let test_infeasible_constraints () =
  let m = Model.create () in
  let x = Model.add_var ~lo:neg_infinity ~hi:infinity m in
  Model.add_constr m [ (x, 1.0) ] Model.Ge 2.0;
  Model.add_constr m [ (x, 1.0) ] Model.Le 1.0;
  Model.set_objective m Model.Minimize [ (x, 1.0) ];
  let sol = Simplex.solve m in
  check_status "infeasible2" Simplex.Infeasible sol.Simplex.status;
  (* phase 1 proves this one infeasible; x is all NaN as on every
     other Infeasible path *)
  Alcotest.(check bool) "x is NaN" true
    (Array.for_all Float.is_nan sol.Simplex.x)

let test_unbounded () =
  let m = Model.create () in
  let x = Model.add_var ~lo:0.0 ~hi:infinity m in
  Model.set_objective m Model.Maximize [ (x, 1.0) ];
  check_status "unbounded" Simplex.Unbounded (Simplex.solve m).Simplex.status

let test_free_vars () =
  let m = Model.create () in
  let x = Model.add_var ~lo:neg_infinity ~hi:infinity m in
  let y = Model.add_var ~lo:neg_infinity ~hi:infinity m in
  Model.add_constr m [ (x, 1.0); (y, 1.0) ] Model.Le 2.0;
  Model.add_constr m [ (x, -1.0); (y, 1.0) ] Model.Le 2.0;
  Model.add_constr m [ (y, 1.0) ] Model.Ge (-1.0);
  Model.set_objective m Model.Maximize [ (y, 1.0) ];
  check_obj "free" 2.0 (Simplex.solve m)

let test_fixed_var () =
  let m = Model.create () in
  let x = Model.add_var ~lo:2.0 ~hi:2.0 m in
  let y = Model.add_var ~lo:0.0 ~hi:10.0 m in
  Model.add_constr m [ (x, 1.0); (y, 1.0) ] Model.Le 5.0;
  Model.set_objective m Model.Maximize [ (y, 1.0) ];
  check_obj "fixed" 3.0 (Simplex.solve m)

let test_no_constraints () =
  let m = Model.create () in
  let x = Model.add_var ~lo:(-1.0) ~hi:4.0 m in
  Model.set_objective m Model.Maximize [ (x, 2.0) ];
  check_obj "box only" 8.0 (Simplex.solve m)

let test_negative_bounds () =
  let m = Model.create () in
  let x = Model.add_var ~lo:(-5.0) ~hi:(-1.0) m in
  let y = Model.add_var ~lo:(-3.0) ~hi:3.0 m in
  Model.add_constr m [ (x, 1.0); (y, 1.0) ] Model.Ge (-4.0) ;
  Model.set_objective m Model.Minimize [ (x, 1.0); (y, 2.0) ];
  (* x + y >= -4, minimise x + 2y: push y down: y >= -4 - x;
     best at x = -1, y = -3: obj = -7 *)
  check_obj "neg bounds" (-7.0) (Simplex.solve m)

let test_degenerate () =
  (* many redundant constraints through one vertex *)
  let m = Model.create () in
  let x = Model.add_var ~lo:0.0 ~hi:10.0 m in
  let y = Model.add_var ~lo:0.0 ~hi:10.0 m in
  Model.add_constr m [ (x, 1.0); (y, 1.0) ] Model.Le 2.0;
  Model.add_constr m [ (x, 2.0); (y, 2.0) ] Model.Le 4.0;
  Model.add_constr m [ (x, 1.0) ] Model.Le 1.0;
  Model.add_constr m [ (x, 1.0); (y, 2.0) ] Model.Le 3.0;
  Model.set_objective m Model.Maximize [ (x, 1.0); (y, 1.0) ];
  check_obj "degenerate" 2.0 (Simplex.solve m)

let test_objective_constant () =
  let m = Model.create () in
  let x = Model.add_var ~lo:0.0 ~hi:1.0 m in
  Model.set_objective m Model.Maximize ~const:10.0 [ (x, 1.0) ];
  check_obj "const" 11.0 (Simplex.solve m)

let test_compiled_reuse () =
  let m = Model.create () in
  let x = Model.add_var ~lo:0.0 ~hi:4.0 m in
  let y = Model.add_var ~lo:0.0 ~hi:4.0 m in
  Model.add_constr m [ (x, 1.0); (y, 1.0) ] Model.Le 5.0;
  Model.set_objective m Model.Maximize [ (x, 1.0) ];
  let cp = Simplex.compile m in
  let lo, hi = Simplex.default_bounds cp in
  check_obj "default" 4.0 (Simplex.solve_compiled cp ~lo ~hi);
  (* tighten x's bound without rebuilding *)
  let hi2 = Array.copy hi in
  hi2.(0) <- 2.0;
  check_obj "tightened" 2.0 (Simplex.solve_compiled cp ~lo ~hi:hi2);
  (* objective override *)
  check_obj "override" 4.0
    (Simplex.solve_compiled
       ~objective:(Model.Maximize, [ (y, 1.0) ])
       cp ~lo ~hi);
  check_obj "override min" 0.0
    (Simplex.solve_compiled
       ~objective:(Model.Minimize, [ (y, 1.0) ])
       cp ~lo ~hi)

(* A NaN bound is rejected when the session is created, as
   [set_var_bounds] rejects it later: a NaN lower bound fails every
   [lo < hi] pricing test, so minimising x over [nan, 1] would report
   a wrong optimum of 1. *)
let test_nan_bounds_rejected () =
  let m = Model.create () in
  let x = Model.add_var ~lo:0.0 ~hi:1.0 m in
  Model.set_objective m Model.Minimize [ (x, 1.0) ];
  let cp = Simplex.compile m in
  let nan_bound = Invalid_argument "Simplex.create_session: NaN bound" in
  Alcotest.check_raises "solve_compiled lo" nan_bound (fun () ->
      ignore (Simplex.solve_compiled cp ~lo:[| nan |] ~hi:[| 1.0 |]));
  Alcotest.check_raises "solve_compiled hi" nan_bound (fun () ->
      ignore (Simplex.solve_compiled cp ~lo:[| 0.0 |] ~hi:[| nan |]));
  Alcotest.check_raises "create_session" nan_bound (fun () ->
      ignore (Simplex.create_session ~lo:[| nan |] cp))

let test_feasibility_of_solution () =
  (* returned x must satisfy all constraints *)
  let m = Model.create () in
  let v = Model.add_vars ~n:4 ~lo:(-2.0) ~hi:2.0 m in
  Model.add_constr m [ (v.(0), 1.0); (v.(1), 1.0); (v.(2), 1.0) ] Model.Le 1.5;
  Model.add_constr m [ (v.(1), 1.0); (v.(3), -1.0) ] Model.Ge (-0.5);
  Model.add_constr m [ (v.(0), 1.0); (v.(3), 1.0) ] Model.Eq 1.0;
  Model.set_objective m Model.Maximize
    [ (v.(0), 1.0); (v.(1), 2.0); (v.(2), -1.0); (v.(3), 0.5) ];
  let sol = Simplex.solve m in
  check_status "feas status" Simplex.Optimal sol.Simplex.status;
  let x = sol.Simplex.x in
  let s1 = x.(0) +. x.(1) +. x.(2) in
  let s2 = x.(1) -. x.(3) in
  let s3 = x.(0) +. x.(3) in
  Alcotest.(check bool) "c1" true (s1 <= 1.5 +. 1e-6);
  Alcotest.(check bool) "c2" true (s2 >= -0.5 -. 1e-6);
  Alcotest.(check bool) "c3" true (Float.abs (s3 -. 1.0) <= 1e-6)

(* --- property: random 2-var LPs vs vertex enumeration --- *)

(* For 2 variables with box bounds and Le constraints, the optimum (if
   feasible/bounded) lies at the intersection of two active
   constraints (including bounds).  Enumerate all pairs. *)
let brute_force_2var ~lo ~hi ~constraints ~c =
  (* lines: a1 x + a2 y = b, from constraints and bounds *)
  let lines =
    List.concat
      [ List.map (fun (a1, a2, b) -> (a1, a2, b)) constraints;
        [ (1.0, 0.0, lo.(0)); (1.0, 0.0, hi.(0)); (0.0, 1.0, lo.(1));
          (0.0, 1.0, hi.(1)) ] ]
  in
  let feasible (x, y) =
    x >= lo.(0) -. 1e-7 && x <= hi.(0) +. 1e-7 && y >= lo.(1) -. 1e-7
    && y <= hi.(1) +. 1e-7
    && List.for_all
         (fun (a1, a2, b) -> (a1 *. x) +. (a2 *. y) <= b +. 1e-7)
         constraints
  in
  let candidates = ref [] in
  let n = List.length lines in
  let arr = Array.of_list lines in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let a1, a2, b1 = arr.(i) and a3, a4, b2 = arr.(j) in
      let det = (a1 *. a4) -. (a2 *. a3) in
      if Float.abs det > 1e-9 then begin
        let x = ((b1 *. a4) -. (a2 *. b2)) /. det in
        let y = ((a1 *. b2) -. (b1 *. a3)) /. det in
        if feasible (x, y) then candidates := (x, y) :: !candidates
      end
    done
  done;
  match !candidates with
  | [] -> None
  | cands ->
      Some
        (List.fold_left
           (fun acc (x, y) -> Float.max acc ((c.(0) *. x) +. (c.(1) *. y)))
           neg_infinity cands)

let random_lp_agrees =
  let gen =
    QCheck.Gen.(
      let coeff = float_range (-3.0) 3.0 in
      let constr = triple coeff coeff (float_range (-2.0) 6.0) in
      triple (list_size (int_range 1 5) constr) (pair coeff coeff)
        (pair (float_range (-4.0) 0.0) (float_range 0.5 4.0)))
  in
  Test_seed.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"2-var LP matches vertex enumeration"
       (QCheck.make gen)
       (fun (constraints, (c1, c2), (lo_v, hi_v)) ->
         let lo = [| lo_v; lo_v |] and hi = [| hi_v; hi_v |] in
         let m = Model.create () in
         let x = Model.add_var ~lo:lo_v ~hi:hi_v m in
         let y = Model.add_var ~lo:lo_v ~hi:hi_v m in
         List.iter
           (fun (a1, a2, b) ->
             Model.add_constr m [ (x, a1); (y, a2) ] Model.Le b)
           constraints;
         Model.set_objective m Model.Maximize [ (x, c1); (y, c2) ];
         let sol = Simplex.solve m in
         let brute =
           brute_force_2var ~lo ~hi ~constraints ~c:[| c1; c2 |]
         in
         match (sol.Simplex.status, brute) with
         | Simplex.Optimal, Some expected ->
             feq ~eps:1e-5 sol.Simplex.obj expected
         | Simplex.Infeasible, None -> true
         | Simplex.Optimal, None ->
             (* brute force misses interior-only optima only when no
                constraint is active, impossible for a linear objective
                unless it is constant *)
             Float.abs c1 < 1e-9 && Float.abs c2 < 1e-9
         | Simplex.Infeasible, Some _ -> false
         | (Simplex.Unbounded | Simplex.Iteration_limit), _ -> false))

(* larger random LPs: the solution must be feasible and no sampled
   feasible point may beat it *)
let random_lp_sound =
  let gen =
    QCheck.Gen.(
      pair (int_range 3 6)
        (pair (int_range 2 6) (int_range 0 1000000)))
  in
  Test_seed.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"n-var LP optimal beats sampled points"
       (QCheck.make gen)
       (fun (n, (n_constr, seed)) ->
         let rng = Random.State.make [| seed |] in
         let rf lo hi = lo +. Random.State.float rng (hi -. lo) in
         let m = Model.create () in
         let vars =
           Array.init n (fun _ -> Model.add_var ~lo:(-1.0) ~hi:1.0 m)
         in
         let constraints =
           List.init n_constr (fun _ ->
               let row =
                 Array.to_list
                   (Array.map (fun v -> (v, rf (-2.0) 2.0)) vars)
               in
               (* rhs chosen so the origin is feasible *)
               let rhs = rf 0.1 3.0 in
               Model.add_constr m row Model.Le rhs;
               (List.map snd row, rhs))
         in
         let c = Array.init n (fun _ -> rf (-2.0) 2.0) in
         Model.set_objective m Model.Maximize
           (Array.to_list (Array.mapi (fun i v -> (v, c.(i))) vars));
         let sol = Simplex.solve m in
         match sol.Simplex.status with
         | Simplex.Optimal ->
             let feasible x =
               Array.for_all (fun v -> v >= -1.0 -. 1e-7 && v <= 1.0 +. 1e-7) x
               && List.for_all
                    (fun (coeffs, rhs) ->
                      List.fold_left ( +. ) 0.0
                        (List.mapi (fun i a -> a *. x.(i)) coeffs)
                      <= rhs +. 1e-6)
                    constraints
             in
             let obj x =
               Array.fold_left ( +. ) 0.0 (Array.mapi (fun i v -> c.(i) *. v) x)
             in
             feasible sol.Simplex.x
             && feq ~eps:1e-5 (obj sol.Simplex.x) sol.Simplex.obj
             && (let ok = ref true in
                 for _ = 1 to 200 do
                   let x = Array.init n (fun _ -> rf (-1.0) 1.0) in
                   if feasible x && obj x > sol.Simplex.obj +. 1e-5 then
                     ok := false
                 done;
                 !ok)
         | Simplex.Infeasible ->
             (* origin is always feasible by construction *)
             false
         | Simplex.Unbounded | Simplex.Iteration_limit -> false))

(* --- sessions: warm starts must agree with cold solves --- *)

let test_session_objective_sweep () =
  let m = Model.create () in
  let x = Model.add_var ~lo:0.0 ~hi:3.0 m in
  let y = Model.add_var ~lo:0.0 ~hi:5.0 m in
  Model.add_constr m [ (x, 1.0); (y, 1.0) ] Model.Le 4.0;
  Model.add_constr m [ (x, 1.0); (y, 3.0) ] Model.Le 6.0;
  Model.set_objective m Model.Maximize [ (x, 3.0); (y, 2.0) ];
  let cp = Simplex.compile m in
  let sn = Simplex.create_session cp in
  check_obj "model objective" 11.0 (Simplex.solve_session sn);
  (* objective-only hot starts: no further cold solves *)
  check_obj "max y" 2.0
    (Simplex.solve_session ~objective:(Model.Maximize, [ (y, 1.0) ]) sn);
  check_obj "min y" 0.0
    (Simplex.solve_session ~objective:(Model.Minimize, [ (y, 1.0) ]) sn);
  check_obj "max x" 3.0
    (Simplex.solve_session ~objective:(Model.Maximize, [ (x, 1.0) ]) sn);
  check_obj "min x+y" 0.0
    (Simplex.solve_session
       ~objective:(Model.Minimize, [ (x, 1.0); (y, 1.0) ])
       sn);
  let st = Simplex.session_stats sn in
  Alcotest.(check int) "solves" 5 st.Simplex.solves;
  Alcotest.(check int) "cold solves" 1 st.Simplex.cold_solves;
  Alcotest.(check int) "warm solves" 4 st.Simplex.warm_solves;
  Alcotest.(check int) "fallbacks" 0 st.Simplex.fallbacks

let test_session_bound_changes () =
  let m = Model.create () in
  let x = Model.add_var ~lo:0.0 ~hi:4.0 m in
  let y = Model.add_var ~lo:0.0 ~hi:4.0 m in
  Model.add_constr m [ (x, 1.0); (y, 1.0) ] Model.Le 5.0;
  Model.set_objective m Model.Maximize [ (x, 1.0); (y, 1.0) ];
  let cp = Simplex.compile m in
  let sn = Simplex.create_session cp in
  check_obj "initial" 5.0 (Simplex.solve_session sn);
  (* tighten: dual restart recovers feasibility *)
  Simplex.set_var_bounds sn x ~lo:0.0 ~hi:1.0;
  check_obj "tightened x" 5.0 (Simplex.solve_session sn);
  Simplex.set_var_bounds sn y ~lo:0.0 ~hi:1.0;
  check_obj "tightened both" 2.0 (Simplex.solve_session sn);
  (* empty range: immediately infeasible, no solve attempted *)
  Simplex.set_var_bounds sn x ~lo:2.0 ~hi:1.0;
  check_status "empty range" Simplex.Infeasible
    (Simplex.solve_session sn).Simplex.status;
  (* conflicting bounds vs constraint *)
  Simplex.set_var_bounds sn x ~lo:3.0 ~hi:4.0;
  Simplex.set_var_bounds sn y ~lo:3.0 ~hi:4.0;
  check_status "conflict" Simplex.Infeasible
    (Simplex.solve_session sn).Simplex.status;
  (* restore: the session must recover *)
  Simplex.set_var_bounds sn x ~lo:0.0 ~hi:4.0;
  Simplex.set_var_bounds sn y ~lo:0.0 ~hi:4.0;
  check_obj "restored" 5.0 (Simplex.solve_session sn);
  let lo, hi = Simplex.session_bounds sn in
  Alcotest.(check bool) "bounds restored" true
    (lo.(0) = 0.0 && hi.(0) = 4.0 && lo.(1) = 0.0 && hi.(1) = 4.0)

(* A bound change that leaves the retained basis primal infeasible
   starts a dual restart; one that cannot pivot ([max_iter] 0) falls
   back to a cold solve, which is counted as cold, not warm. *)
let test_session_dual_fallback_counts () =
  let m = Model.create () in
  let x = Model.add_var ~lo:0.0 ~hi:4.0 m in
  let y = Model.add_var ~lo:0.0 ~hi:4.0 m in
  Model.add_constr m [ (x, 1.0); (y, 1.0) ] Model.Le 5.0;
  Model.set_objective m Model.Maximize [ (x, 1.0); (y, 1.0) ];
  let cp = Simplex.compile m in
  let sn = Simplex.create_session cp in
  check_obj "initial" 5.0 (Simplex.solve_session sn);
  (* x + y = 5 at the optimum: whichever of x, y is basic leaves [0, 1] *)
  Simplex.set_var_bounds sn x ~lo:0.0 ~hi:1.0;
  Simplex.set_var_bounds sn y ~lo:0.0 ~hi:1.0;
  let st = Simplex.session_stats sn in
  let solves0 = st.Simplex.solves and warm0 = st.Simplex.warm_solves
  and fallbacks0 = st.Simplex.fallbacks and cold0 = st.Simplex.cold_solves in
  let metric name = Obs.Metrics.get (Obs.Metrics.counter name) in
  let m_fallbacks0 = metric "simplex.fallbacks"
  and m_warm0 = metric "simplex.warm_solves"
  and m_dual0 = metric "simplex.dual_restarts" in
  check_status "no pivots allowed" Simplex.Iteration_limit
    (Simplex.solve_session ~max_iter:0 sn).Simplex.status;
  Alcotest.(check int) "solves" (solves0 + 1) st.Simplex.solves;
  Alcotest.(check int) "warm solves" warm0 st.Simplex.warm_solves;
  Alcotest.(check int) "fallbacks" (fallbacks0 + 1) st.Simplex.fallbacks;
  Alcotest.(check int) "cold solves" (cold0 + 1) st.Simplex.cold_solves;
  Alcotest.(check int) "fallbacks metric" (m_fallbacks0 + 1)
    (metric "simplex.fallbacks");
  Alcotest.(check int) "warm metric" m_warm0 (metric "simplex.warm_solves");
  Alcotest.(check int) "dual restart attempted" (m_dual0 + 1)
    (metric "simplex.dual_restarts");
  (* a restart that pivots once, hits the limit and falls back: its
     pivot counts in the answer and in "simplex.pivots", so the pivot
     and eta-update metrics move together *)
  Simplex.set_var_bounds sn x ~lo:0.0 ~hi:4.0;
  Simplex.set_var_bounds sn y ~lo:0.0 ~hi:4.0;
  check_obj "re-solved" 5.0 (Simplex.solve_session sn);
  Simplex.set_var_bounds sn x ~lo:0.0 ~hi:1.0;
  Simplex.set_var_bounds sn y ~lo:0.0 ~hi:1.0;
  let fallbacks1 = st.Simplex.fallbacks
  and pivots0 = metric "simplex.pivots"
  and etas0 = metric "simplex.eta_updates" in
  let res = Simplex.solve_session ~max_iter:1 sn in
  check_status "one pivot allowed" Simplex.Iteration_limit res.Simplex.status;
  Alcotest.(check int) "fell back" (fallbacks1 + 1) st.Simplex.fallbacks;
  Alcotest.(check bool) "the restart pivoted" true (res.Simplex.pivots >= 1);
  Alcotest.(check int) "answer counts every pivot"
    (metric "simplex.eta_updates" - etas0) res.Simplex.pivots;
  Alcotest.(check int) "pivots metric = eta updates"
    (metric "simplex.eta_updates" - etas0)
    (metric "simplex.pivots" - pivots0)

(* An [Unbounded] solve keeps its (primal feasible) basis, as an
   [Optimal] one does: the next objective is served warm. *)
let test_session_unbounded_keeps_basis () =
  let m = Model.create () in
  let x = Model.add_var ~lo:0.0 ~hi:infinity m in
  let y = Model.add_var ~lo:0.0 ~hi:2.0 m in
  Model.add_constr m [ (y, 1.0); (x, -1.0) ] Model.Le 1.0;
  Model.set_objective m Model.Maximize [ (x, 1.0) ];
  let cp = Simplex.compile m in
  let sn = Simplex.create_session cp in
  check_status "max x" Simplex.Unbounded
    (Simplex.solve_session sn).Simplex.status;
  let objective = (Model.Minimize, [ (x, 1.0); (y, -1.0) ]) in
  let warm = Simplex.solve_session ~objective sn in
  let lo, hi = Simplex.default_bounds cp in
  let cold = Simplex.solve_compiled ~objective cp ~lo ~hi in
  check_obj "min x - y" cold.Simplex.obj warm;
  check_obj "cold min x - y" (-1.0) cold;
  let st = Simplex.session_stats sn in
  Alcotest.(check int) "cold solves" 1 st.Simplex.cold_solves;
  Alcotest.(check int) "warm solves" 1 st.Simplex.warm_solves

(* property: an arbitrary interleaving of objective swaps and bound
   changes solved warm must agree with a cold solve of every state, and
   the LU must accept every basis the session meets *)
let random_session_agrees =
  let gen =
    QCheck.Gen.(
      triple (int_range 2 5) (int_range 1 5) (int_range 0 1000000))
  in
  Test_seed.to_alcotest
    (QCheck.Test.make ~count:120
       ~name:"session warm solves match cold solves"
       (QCheck.make gen)
       (fun (n, n_constr, seed) ->
         let rng = Random.State.make [| seed |] in
         let rf lo hi = lo +. Random.State.float rng (hi -. lo) in
         let m = Model.create () in
         let vars =
           Array.init n (fun _ -> Model.add_var ~lo:(-2.0) ~hi:2.0 m)
         in
         for _ = 1 to n_constr do
           let row =
             Array.to_list (Array.map (fun v -> (v, rf (-2.0) 2.0)) vars)
           in
           (* origin-feasible rhs keeps the initial LP feasible *)
           Model.add_constr m row Model.Le (rf 0.1 3.0)
         done;
         Model.set_objective m Model.Maximize
           (Array.to_list (Array.map (fun v -> (v, rf (-2.0) 2.0)) vars));
         let cp = Simplex.compile m in
         let sn = Simplex.create_session cp in
         let agree () =
           let warm = Simplex.solve_session sn in
           let lo, hi = Simplex.session_bounds sn in
           let cold = Simplex.solve_compiled cp ~lo ~hi in
           warm.Simplex.status = cold.Simplex.status
           && (warm.Simplex.status <> Simplex.Optimal
               || feq ~eps:1e-6 warm.Simplex.obj cold.Simplex.obj)
         in
         let ok = ref (agree ()) in
         for _ = 1 to 8 do
           if !ok then begin
             (match Random.State.int rng 3 with
              | 0 ->
                  (* replace the whole bound arrays (diffing path) *)
                  let lo, hi = Simplex.session_bounds sn in
                  Array.iteri
                    (fun j _ ->
                      if Random.State.bool rng then begin
                        let a = rf (-2.0) 2.0 and b = rf (-2.0) 2.0 in
                        lo.(j) <- Float.min a b;
                        hi.(j) <- Float.max a b
                      end)
                    vars;
                  Simplex.set_bounds sn ~lo ~hi
              | 1 ->
                  (* tighten one variable to a random subinterval *)
                  let j = Random.State.int rng n in
                  let a = rf (-2.0) 2.0 and b = rf (-2.0) 2.0 in
                  Simplex.set_var_bounds sn vars.(j) ~lo:(Float.min a b)
                    ~hi:(Float.max a b)
              | _ ->
                  (* restore one variable to its original range *)
                  let j = Random.State.int rng n in
                  Simplex.set_var_bounds sn vars.(j) ~lo:(-2.0) ~hi:2.0);
             (* also exercise the objective-override path half the time *)
             if Random.State.bool rng then begin
               let dir =
                 if Random.State.bool rng then Model.Maximize
                 else Model.Minimize
               in
               let terms =
                 Array.to_list (Array.map (fun v -> (v, rf (-2.0) 2.0)) vars)
               in
               let warm =
                 Simplex.solve_session ~objective:(dir, terms) sn
               in
               let lo, hi = Simplex.session_bounds sn in
               let cold =
                 Simplex.solve_compiled ~objective:(dir, terms) cp ~lo ~hi
               in
               ok :=
                 warm.Simplex.status = cold.Simplex.status
                 && (warm.Simplex.status <> Simplex.Optimal
                     || feq ~eps:1e-6 warm.Simplex.obj cold.Simplex.obj)
             end
             else ok := agree ()
           end
         done;
         !ok && (Simplex.session_stats sn).Simplex.lu_rejections = 0))

(* The certifier's query pattern on real encodings: the min and max of
   every neuron's value and distance variable over the full-window
   relaxed ITNE encoding of Fig. 4 and Table I's DNN-2..5, solved cold
   and through one session.  The sparse LU must reject no basis. *)
let test_lu_no_rejections_on_encodings () =
  let rejections = Obs.Metrics.counter "simplex.lu_rejections" in
  let sweep (name, net, lo, hi, delta) =
    let input = Cert.Bounds.box_domain net ~lo ~hi in
    let bounds =
      Cert.Bounds.create net ~input
        ~input_dist:(Cert.Bounds.uniform_delta net delta)
    in
    Cert.Interval_prop.propagate net bounds;
    let enc =
      Cert.Encode.itne ~mode:Cert.Encode.Relaxed ~bounds
        (Cert.Subnet.full net)
    in
    let objectives =
      Hashtbl.fold
        (fun _ (nv : Cert.Encode.neuron_vars) acc ->
          List.concat_map
            (fun v ->
              [ (Model.Maximize, [ (v, 1.0) ]);
                (Model.Minimize, [ (v, 1.0) ]) ])
            [ nv.Cert.Encode.y; nv.Cert.Encode.dy ]
          @ acc)
        enc.Cert.Encode.vars []
    in
    let cp = Simplex.compile enc.Cert.Encode.model in
    let lo_b, hi_b = Simplex.default_bounds cp in
    let before = Obs.Metrics.get rejections in
    List.iter
      (fun objective ->
        ignore (Simplex.solve_compiled ~objective cp ~lo:lo_b ~hi:hi_b))
      objectives;
    let session = Simplex.create_session cp in
    List.iter
      (fun objective -> ignore (Simplex.solve_session ~objective session))
      objectives;
    Alcotest.(check int) (name ^ ": LU rejections") 0
      (Obs.Metrics.get rejections - before)
  in
  List.iter sweep
    [ ("fig4", Exp.Fig4.example_network (), -1.0, 1.0, 0.1);
      ("dnn2", Test_nets.dnn2 (), 0.0, 1.0, 0.001);
      ("dnn3", Test_nets.dnn3 (), 0.0, 1.0, 0.001);
      ("dnn4", Test_nets.dnn4 (), 0.0, 1.0, 0.001);
      ("dnn5", Test_nets.dnn5 (), 0.0, 1.0, 0.001) ]

(* Property: a solve from a restored snapshot depends on the snapshot,
   the bounds and the objective only.  A session that ran arbitrary
   bound-change solves before restoring, one that restores right after
   its snapshot, and a fresh session given the other's snapshot all
   answer bitwise-identically — and agree with a cold solve. *)
let restore_history_independent =
  let gen =
    QCheck.Gen.(
      triple (int_range 2 6) (int_range 1 5) (int_range 0 1000000))
  in
  Test_seed.to_alcotest
    (QCheck.Test.make ~count:120
       ~name:"restored solves do not depend on history"
       (QCheck.make gen)
       (fun (n, n_constr, seed) ->
         let rng = Random.State.make [| seed; 0x5a |] in
         let rf lo hi = lo +. Random.State.float rng (hi -. lo) in
         let m = Model.create () in
         let vars =
           Array.init n (fun _ -> Model.add_var ~lo:(-2.0) ~hi:2.0 m)
         in
         for _ = 1 to n_constr do
           let row =
             Array.to_list (Array.map (fun v -> (v, rf (-2.0) 2.0)) vars)
           in
           Model.add_constr m row Model.Le (rf 0.1 3.0)
         done;
         Model.set_objective m Model.Maximize
           (Array.to_list (Array.map (fun v -> (v, rf (-2.0) 2.0)) vars));
         let cp = Simplex.compile m in
         let root_lo, root_hi = Simplex.default_bounds cp in
         let rooted () =
           let sn = Simplex.create_session cp in
           ignore (Simplex.solve_session sn : Simplex.solution);
           (sn, Simplex.snapshot sn)
         in
         let a, snap_a = rooted () and b, snap_b = rooted () in
         (* arbitrary history on [a] *)
         for _ = 1 to 1 + Random.State.int rng 6 do
           let j = Random.State.int rng n in
           let u = rf (-2.0) 2.0 and w = rf (-2.0) 2.0 in
           Simplex.set_var_bounds a vars.(j) ~lo:(Float.min u w)
             ~hi:(Float.max u w);
           ignore (Simplex.solve_session a : Simplex.solution)
         done;
         (* the pinned box: root bounds with a few variables fixed *)
         let lo = Array.copy root_lo and hi = Array.copy root_hi in
         Array.iter
           (fun v ->
             if Random.State.bool rng then begin
               let x = rf (-2.0) 2.0 in
               lo.(v) <- x;
               hi.(v) <- x
             end)
           vars;
         let restored sn snap =
           Simplex.restore sn snap;
           Simplex.set_bounds sn ~lo ~hi;
           Simplex.solve_session sn
         in
         let ra = restored a snap_a and rb = restored b snap_b in
         let rc = restored (Simplex.create_session cp) snap_a in
         let bits = Int64.bits_of_float in
         let same (r : Simplex.solution) (r' : Simplex.solution) =
           r.Simplex.status = r'.Simplex.status
           && (r.Simplex.status <> Simplex.Optimal
               || (bits r.Simplex.obj = bits r'.Simplex.obj
                   && Array.for_all2
                        (fun x y -> bits x = bits y)
                        r.Simplex.x r'.Simplex.x))
         in
         let cold = Simplex.solve_compiled cp ~lo ~hi in
         if not (same ra rb && same ra rc) then
           QCheck.Test.fail_reportf "restored solves differ: %s %.17g / %s \
                                     %.17g / %s %.17g"
             (status_str ra.Simplex.status) ra.Simplex.obj
             (status_str rb.Simplex.status) rb.Simplex.obj
             (status_str rc.Simplex.status) rc.Simplex.obj;
         ra.Simplex.status = cold.Simplex.status
         && (ra.Simplex.status <> Simplex.Optimal
             || feq ~eps:1e-6 ra.Simplex.obj cold.Simplex.obj)))

(* --- sparse LU basis --- *)

module Lu = Linalg.Lu

(* A fresh workspace factorising [cols], or [None] when singular. *)
let lu_of cols =
  let lu = Lu.create (Array.length cols) in
  if Lu.factor lu (Array.get cols) then Some lu else None

(* Random sparse basis with a strong diagonal plus a few off-diagonal
   entries per column: nonsingular with overwhelming probability, and
   shaped like the slack-heavy bases the simplex actually factorises. *)
let rand_basis rng m =
  Array.init m (fun j ->
      let extra = Random.State.int rng 3 in
      let entries = ref [ (j, 1.0 +. Random.State.float rng 4.0) ] in
      for _ = 1 to extra do
        entries :=
          (Random.State.int rng m, Random.State.float rng 2.0 -. 1.0)
          :: !entries
      done;
      (Array.of_list (List.map fst !entries),
       Array.of_list (List.map snd !entries)))

(* a fresh column with a strong entry on row [r], so it can replace the
   basic variable in position [r] *)
let rand_column rng m r =
  let extra = 1 + Random.State.int rng 3 in
  let entries = ref [ (r, 2.0 +. Random.State.float rng 2.0) ] in
  for _ = 1 to extra do
    entries :=
      (Random.State.int rng m, Random.State.float rng 2.0 -. 1.0) :: !entries
  done;
  (Array.of_list (List.map fst !entries),
   Array.of_list (List.map snd !entries))

(* B x, with x in basis-position space (duplicate row entries sum) *)
let basis_mat_vec m cols x =
  let r = Array.make m 0.0 in
  Array.iteri
    (fun j (idx, vals) ->
      Array.iteri (fun q i -> r.(i) <- r.(i) +. (vals.(q) *. x.(j))) idx)
    cols;
  r

(* B^T pi, result in basis-position space *)
let basis_mat_tvec m cols pi =
  Array.init m (fun j ->
      let idx, vals = cols.(j) in
      let s = ref 0.0 in
      Array.iteri (fun q i -> s := !s +. (vals.(q) *. pi.(i))) idx;
      !s)

let max_abs_diff a b =
  let worst = ref 0.0 in
  Array.iteri
    (fun i v -> worst := Float.max !worst (Float.abs (v -. b.(i))))
    a;
  !worst

let lu_roundtrip =
  let gen = QCheck.Gen.(pair (int_range 1 30) (int_range 0 1000000)) in
  Test_seed.to_alcotest
    (QCheck.Test.make ~count:150 ~name:"LU factor/solve round-trip"
       (QCheck.make gen)
       (fun (m, seed) ->
         let rng = Random.State.make [| seed; 11 |] in
         let cols = rand_basis rng m in
         match lu_of cols with
         | None -> true (* vanishing probability; rejection is legal *)
         | Some lu ->
             let rv () =
               Array.init m (fun _ -> Random.State.float rng 2.0 -. 1.0)
             in
             (* FTRAN: B (solve b) = b *)
             let b = rv () in
             let y = Array.make m 0.0 in
             Lu.ftran_dense lu b y;
             let ftran_res = max_abs_diff (basis_mat_vec m cols y) b in
             (* BTRAN: B^T (solve c) = c *)
             let c = rv () in
             let pi = Array.make m 0.0 in
             Lu.btran_dense lu c pi;
             let btran_res = max_abs_diff (basis_mat_tvec m cols pi) c in
             (* btran_unit r = row r of B^-1: B^T u = e_r *)
             let r = Random.State.int rng m in
             let u = Array.make m 0.0 in
             Lu.btran_unit lu r u;
             let e_r = Array.init m (fun i -> if i = r then 1.0 else 0.0) in
             let unit_res = max_abs_diff (basis_mat_tvec m cols u) e_r in
             ftran_res <= 1e-9 && btran_res <= 1e-9 && unit_res <= 1e-9))

let test_lu_singular () =
  let rng = Random.State.make [| 7 |] in
  let cols = rand_basis rng 8 in
  cols.(2) <- cols.(6);
  (match lu_of cols with
   | Some _ -> Alcotest.fail "exactly singular basis accepted"
   | None -> ());
  (* near-singular: the duplicate perturbed at relative 1e-15 is still
     far below the 1e-12 pivot tolerance *)
  let idx, vals = cols.(6) in
  cols.(2) <- (Array.copy idx, Array.map (fun v -> v *. (1.0 +. 1e-15)) vals);
  (match lu_of cols with
   | Some _ -> Alcotest.fail "near-singular basis accepted"
   | None -> ());
  Alcotest.check_raises "row out of range"
    (Invalid_argument "Lu.factor: row 9 out of range") (fun () ->
      ignore (lu_of (Array.init 8 (fun _ -> ([| 9 |], [| 1.0 |])))))

let lu_eta_equivalence =
  let gen = QCheck.Gen.(pair (int_range 2 25) (int_range 0 1000000)) in
  Test_seed.to_alcotest
    (QCheck.Test.make ~count:120
       ~name:"eta updates match a fresh refactorisation"
       (QCheck.make gen)
       (fun (m, seed) ->
         let rng = Random.State.make [| seed; 13 |] in
         let cols = rand_basis rng m in
         match lu_of cols with
         | None -> true
         | Some lu ->
             (* k simplex-style column replacements through the eta file *)
             let k = 1 + Random.State.int rng 6 in
             for _ = 1 to k do
               let r = Random.State.int rng m in
               let nidx, nvals = rand_column rng m r in
               let y = Array.make m 0.0 in
               Lu.ftran_pair lu nidx nvals y;
               if Float.abs y.(r) > 1e-6 then begin
                 ignore (Lu.push_eta lu ~r ~y);
                 cols.(r) <- (nidx, nvals)
               end
             done;
             (* the updated factorisation must agree with refactorising
                the replaced basis from scratch *)
             match lu_of cols with
             | None -> true
             | Some fresh ->
                 let rv () =
                   Array.init m (fun _ -> Random.State.float rng 2.0 -. 1.0)
                 in
                 let b = rv () and c = rv () in
                 let y1 = Array.make m 0.0 and y2 = Array.make m 0.0 in
                 Lu.ftran_dense lu b y1;
                 Lu.ftran_dense fresh b y2;
                 let p1 = Array.make m 0.0 and p2 = Array.make m 0.0 in
                 Lu.btran_dense lu c p1;
                 Lu.btran_dense fresh c p2;
                 let r = Random.State.int rng m in
                 let u1 = Array.make m 0.0 and u2 = Array.make m 0.0 in
                 Lu.btran_unit lu r u1;
                 Lu.btran_unit fresh r u2;
                 (* <= k: pushes can be skipped when |y_r| is tiny *)
                 Lu.eta_count lu <= k
                 && max_abs_diff y1 y2 <= 1e-9
                 && max_abs_diff p1 p2 <= 1e-9
                 && max_abs_diff u1 u2 <= 1e-9))

(* A basis shaped like a twin-network LP's: slack singletons plus a
   layered block where each neuron column holds its own definition row
   and a few weights into the next layer's rows (lower triangular in
   row order), with now and then a weight into an earlier layer so
   the elimination creates fill.  Columns are canonical (ascending
   rows, no duplicates, no zeros) and their basis positions
   shuffled. *)
let twin_basis rng m =
  let layer = Array.make m 0 in
  let starts = ref [ 0 ] and l = ref 0 and i = ref 0 in
  while !i < m do
    let size = 4 + Random.State.int rng 21 in
    for r = !i to min m (!i + size) - 1 do
      layer.(r) <- !l
    done;
    i := !i + size;
    incr l;
    if !i < m then starts := !i :: !starts
  done;
  let starts = Array.of_list (List.rev !starts) in
  let rows_of l =
    if l >= Array.length starts then None
    else
      let hi = if l + 1 < Array.length starts then starts.(l + 1) else m in
      Some (starts.(l), hi - starts.(l))
  in
  let pick (lo, n) = lo + Random.State.int rng n in
  let cols =
    Array.init m (fun r ->
        if Random.State.float rng 1.0 < 0.35 then ([| r |], [| 1.0 |])
        else begin
          let entries = Hashtbl.create 4 in
          Hashtbl.replace entries r (1.0 +. Random.State.float rng 1.0);
          (match rows_of (layer.(r) + 1) with
           | None -> ()
           | Some blk ->
               for _ = 1 to 1 + Random.State.int rng 3 do
                 Hashtbl.replace entries (pick blk)
                   (Random.State.float rng 1.0 -. 0.5)
               done);
          (if layer.(r) > 0 && Random.State.float rng 1.0 < 0.15 then
             match rows_of (layer.(r) - 1) with
             | None -> ()
             | Some blk ->
                 Hashtbl.replace entries (pick blk)
                   (Random.State.float rng 0.4 -. 0.2));
          let es =
            Hashtbl.fold (fun i v acc -> (i, v) :: acc) entries []
            |> List.filter (fun (_, v) -> v <> 0.0)
            |> List.sort compare
          in
          (Array.of_list (List.map fst es), Array.of_list (List.map snd es))
        end)
  in
  (* shuffle basis positions *)
  for j = m - 1 downto 1 do
    let k = Random.State.int rng (j + 1) in
    let c = cols.(j) in
    cols.(j) <- cols.(k);
    cols.(k) <- c
  done;
  cols

(* Worst FTRAN (dense and sparse right-hand side), BTRAN and
   [btran_unit] residual of [lu] against the basis [cols]. *)
let lu_residual rng lu cols =
  let m = Array.length cols in
  let rv () = Array.init m (fun _ -> Random.State.float rng 2.0 -. 1.0) in
  let b = rv () and y = Array.make m 0.0 in
  Lu.ftran_dense lu b y;
  let ftran = max_abs_diff (basis_mat_vec m cols y) b in
  let r = Random.State.int rng m in
  let idx = [| r; (r * 7) mod m |] and vals = [| 1.5; -0.5 |] in
  Lu.ftran_pair lu idx vals y;
  let a = Array.make m 0.0 in
  Array.iteri (fun q i -> a.(i) <- a.(i) +. vals.(q)) idx;
  let pair = max_abs_diff (basis_mat_vec m cols y) a in
  let c = rv () and pi = Array.make m 0.0 in
  Lu.btran_dense lu c pi;
  let btran = max_abs_diff (basis_mat_tvec m cols pi) c in
  Lu.btran_unit lu r pi;
  let e_r = Array.init m (fun i -> if i = r then 1.0 else 0.0) in
  let unit = max_abs_diff (basis_mat_tvec m cols pi) e_r in
  Float.max (Float.max ftran pair) (Float.max btran unit)

let lu_twin_roundtrip =
  let gen = QCheck.Gen.(pair (int_range 2 200) (int_range 0 1000000)) in
  Test_seed.to_alcotest
    (QCheck.Test.make ~count:100
       ~name:"LU on twin-network-shaped bases, before and after etas"
       (QCheck.make gen)
       (fun (m, seed) ->
         let rng = Random.State.make [| seed; 17 |] in
         let cols = twin_basis rng m in
         match lu_of cols with
         | None -> true (* rejection is legal *)
         | Some lu ->
             let before = lu_residual rng lu cols in
             (* column replacements through the eta file: a slack
                singleton or a fresh neuron column *)
             for _ = 1 to 1 + Random.State.int rng 8 do
               let r = Random.State.int rng m in
               let i = Random.State.int rng m in
               let ((nidx, nvals) as col) =
                 if Random.State.bool rng then ([| i |], [| 1.0 |])
                 else
                   let k = (i + 1 + Random.State.int rng (m - 1)) mod m in
                   if i < k then ([| i; k |], [| 1.5; -0.3 |])
                   else ([| k; i |], [| -0.3; 1.5 |])
               in
               let y = Array.make m 0.0 in
               Lu.ftran_pair lu nidx nvals y;
               if Float.abs y.(r) > 1e-3 then begin
                 ignore (Lu.push_eta lu ~r ~y);
                 cols.(r) <- col
               end
             done;
             let after = lu_residual rng lu cols in
             if before > 1e-9 || after > 1e-9 then
               QCheck.Test.fail_reportf "residual %g before, %g after etas"
                 before after;
             true))

(* A workspace refactorised after a factorisation that stopped at a
   singular column gives bit-for-bit the solves of its first
   factorisation: nothing of the failed one, nor of the eta file, is
   left behind. *)
let test_lu_reuse_after_singular () =
  let rng = Random.State.make [| 23 |] in
  let m = 60 in
  let a = twin_basis rng m in
  (* b: a copy of a in which the last two-entry column repeats the
     first, so elimination stops there with earlier steps' fill in the
     workspace *)
  let b = Array.copy a in
  let nnz j = Array.length (fst a.(j)) in
  let twins = List.filter (fun j -> nnz j = 2) (List.init m Fun.id) in
  (match twins with
   | j0 :: (_ :: _ as rest) -> b.(List.hd (List.rev rest)) <- a.(j0)
   | _ -> Alcotest.fail "basis has too few two-entry columns");
  let lu = Lu.create m in
  let solves () =
    let rhs = Array.init m (fun i -> float_of_int ((i * 37 mod 11) - 5)) in
    let out () = Array.make m 0.0 in
    let f = out () and p = out () and d = out () and u = out () in
    Lu.ftran_dense lu rhs f;
    Lu.ftran_pair lu [| 3; 17; 3 |] [| 1.0; -2.0; 0.5 |] p;
    Lu.btran_dense lu rhs d;
    Lu.btran_unit lu 5 u;
    Array.map Int64.bits_of_float (Array.concat [ f; p; d; u ])
  in
  Alcotest.(check bool) "a factorises" true (Lu.factor lu (Array.get a));
  let first = solves () and nnz_first = Lu.lu_nnz lu in
  let y = Array.make m 0.0 in
  Lu.ftran_pair lu [| 0 |] [| 1.0 |] y;
  ignore (Lu.push_eta lu ~r:0 ~y);
  Lu.flag_unstable lu;
  Alcotest.(check bool) "b is singular" false (Lu.factor lu (Array.get b));
  Alcotest.(check bool) "a factorises again" true
    (Lu.factor lu (Array.get a));
  Alcotest.(check bool) "same bits" true (first = solves ());
  Alcotest.(check int) "same nonzeros" nnz_first (Lu.lu_nnz lu);
  Alcotest.(check int) "eta file emptied" 0 (Lu.eta_count lu);
  Alcotest.(check bool) "stability flag cleared" false (Lu.unstable lu);
  (* a fresh workspace agrees too *)
  match lu_of a with
  | None -> Alcotest.fail "a rejected by a fresh workspace"
  | Some fresh ->
      let rhs = Array.init m (fun i -> float_of_int (i mod 3)) in
      let y1 = Array.make m 0.0 and y2 = Array.make m 0.0 in
      Lu.ftran_dense lu rhs y1;
      Lu.ftran_dense fresh rhs y2;
      Alcotest.(check bool) "fresh workspace, same bits" true
        (Array.map Int64.bits_of_float y1 = Array.map Int64.bits_of_float y2)

(* --- model validation --- *)

let test_model_validation () =
  let m = Model.create () in
  Alcotest.check_raises "empty bounds"
    (Invalid_argument "Model: empty bound range [2, 1]") (fun () ->
      ignore (Model.add_var ~lo:2.0 ~hi:1.0 m));
  Alcotest.check_raises "nan bound" (Invalid_argument "Model: NaN bound")
    (fun () -> ignore (Model.add_var ~lo:nan ~hi:1.0 m));
  let x = Model.add_var ~lo:0.0 ~hi:1.0 m in
  Alcotest.check_raises "unknown var"
    (Invalid_argument "Model: unknown variable 7") (fun () ->
      Model.add_constr m [ (7, 1.0) ] Model.Le 0.0);
  Alcotest.check_raises "nan rhs"
    (Invalid_argument "Model.add_constr: NaN rhs") (fun () ->
      Model.add_constr m [ (x, 1.0) ] Model.Le nan);
  Model.set_bounds m x ~lo:(-2.0) ~hi:2.0;
  Alcotest.(check bool) "set_bounds" true
    (Model.var_lo m x = -2.0 && Model.var_hi m x = 2.0)

let test_model_accessors () =
  let m = Model.create () in
  let x = Model.add_var ~name:"alpha" ~integer:true ~lo:0.0 ~hi:1.0 m in
  let _y = Model.add_var ~lo:0.0 ~hi:1.0 m in
  Alcotest.(check string) "name" "alpha" (Model.var_name m x);
  Alcotest.(check bool) "integer mark" true (Model.is_integer m x);
  Alcotest.(check (list int)) "integer vars" [ 0 ] (Model.integer_vars m);
  Alcotest.(check int) "n_vars" 2 (Model.n_vars m);
  Model.add_constr m [ (x, 1.0) ] Model.Ge 0.0;
  Alcotest.(check int) "n_constrs" 1 (Model.n_constrs m);
  (* pp smoke test *)
  let s = Format.asprintf "%a" Model.pp m in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "pp mentions alpha" true (contains s "alpha")

let suites =
  [ ( "lp:model",
      [ Alcotest.test_case "validation" `Quick test_model_validation;
        Alcotest.test_case "accessors" `Quick test_model_accessors ] );
    ( "lp:simplex",
      [ Alcotest.test_case "basic max" `Quick test_basic_max;
        Alcotest.test_case "basic min" `Quick test_basic_min;
        Alcotest.test_case "equality" `Quick test_equality;
        Alcotest.test_case "infeasible via bounds" `Quick
          test_infeasible_bounds;
        Alcotest.test_case "infeasible via constraints" `Quick
          test_infeasible_constraints;
        Alcotest.test_case "unbounded" `Quick test_unbounded;
        Alcotest.test_case "free variables" `Quick test_free_vars;
        Alcotest.test_case "fixed variable" `Quick test_fixed_var;
        Alcotest.test_case "no constraints" `Quick test_no_constraints;
        Alcotest.test_case "negative bounds" `Quick test_negative_bounds;
        Alcotest.test_case "degenerate vertex" `Quick test_degenerate;
        Alcotest.test_case "objective constant" `Quick
          test_objective_constant;
        Alcotest.test_case "compiled reuse + override" `Quick
          test_compiled_reuse;
        Alcotest.test_case "solution feasibility" `Quick
          test_feasibility_of_solution;
        Alcotest.test_case "NaN bounds rejected" `Quick
          test_nan_bounds_rejected;
        random_lp_agrees;
        random_lp_sound ] );
    ( "lp:session",
      [ Alcotest.test_case "objective sweep" `Quick
          test_session_objective_sweep;
        Alcotest.test_case "bound changes" `Quick test_session_bound_changes;
        Alcotest.test_case "dual-restart fallback counts" `Quick
          test_session_dual_fallback_counts;
        Alcotest.test_case "unbounded keeps its basis" `Quick
          test_session_unbounded_keeps_basis;
        random_session_agrees;
        restore_history_independent;
        Alcotest.test_case "no LU rejections on encodings" `Slow
          test_lu_no_rejections_on_encodings ] );
    ( "lp:basis",
      [ lu_roundtrip;
        Alcotest.test_case "singular rejection" `Quick test_lu_singular;
        lu_eta_equivalence;
        lu_twin_roundtrip;
        Alcotest.test_case "reuse after a singular basis" `Quick
          test_lu_reuse_after_singular ] ) ]
