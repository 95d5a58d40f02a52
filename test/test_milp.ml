(* Branch & bound tests, including property-based comparison against
   exhaustive enumeration of binary assignments. *)

module Model = Lp.Model

let feq ?(eps = 1e-6) a b = Float.abs (a -. b) <= eps

let status_str = function
  | Milp.Optimal -> "optimal"
  | Milp.Infeasible -> "infeasible"
  | Milp.Unbounded -> "unbounded"
  | Milp.Limit -> "limit"
  | Milp.Lp_failure -> "lp-failure"

let check_opt msg expected (r : Milp.result) =
  if r.Milp.status <> Milp.Optimal then
    Alcotest.failf "%s: status %s" msg (status_str r.Milp.status);
  if not (feq expected r.Milp.obj) then
    Alcotest.failf "%s: expected %.9g, got %.9g" msg expected r.Milp.obj;
  if not (feq expected r.Milp.bound) then
    Alcotest.failf "%s: bound %.9g disagrees with optimum %.9g" msg
      r.Milp.bound expected

let test_knapsack () =
  let m = Model.create () in
  let a = Model.add_var ~integer:true ~lo:0.0 ~hi:1.0 m in
  let b = Model.add_var ~integer:true ~lo:0.0 ~hi:1.0 m in
  let c = Model.add_var ~integer:true ~lo:0.0 ~hi:1.0 m in
  Model.add_constr m [ (a, 2.0); (b, 3.0); (c, 1.0) ] Model.Le 5.0;
  Model.set_objective m Model.Maximize [ (a, 5.0); (b, 4.0); (c, 3.0) ];
  check_opt "knapsack" 9.0 (Milp.solve m)

let test_pure_lp_passthrough () =
  (* no integers: one node, LP optimum *)
  let m = Model.create () in
  let x = Model.add_var ~lo:0.0 ~hi:2.5 m in
  Model.set_objective m Model.Maximize [ (x, 2.0) ];
  let r = Milp.solve m in
  check_opt "lp passthrough" 5.0 r;
  Alcotest.(check int) "single node" 1 r.Milp.nodes

let test_integer_infeasible () =
  let m = Model.create () in
  let x = Model.add_var ~integer:true ~lo:0.0 ~hi:1.0 m in
  let y = Model.add_var ~integer:true ~lo:0.0 ~hi:1.0 m in
  Model.add_constr m [ (x, 1.0); (y, 1.0) ] Model.Eq 1.5;
  Model.set_objective m Model.Minimize [ (x, 1.0) ];
  Alcotest.(check string) "infeasible" "infeasible"
    (status_str (Milp.solve m).Milp.status)

let test_general_integer () =
  (* non-binary integers: max x + y, 2x + 5y <= 13, x <= 3 -> x=3,y=1 *)
  let m = Model.create () in
  let x = Model.add_var ~integer:true ~lo:0.0 ~hi:3.0 m in
  let y = Model.add_var ~integer:true ~lo:0.0 ~hi:10.0 m in
  Model.add_constr m [ (x, 2.0); (y, 5.0) ] Model.Le 13.0;
  Model.set_objective m Model.Maximize [ (x, 1.0); (y, 1.0) ];
  check_opt "general int" 4.0 (Milp.solve m)

let test_mixed () =
  (* one binary toggling a continuous variable via big-M *)
  let m = Model.create () in
  let z = Model.add_var ~integer:true ~lo:0.0 ~hi:1.0 m in
  let x = Model.add_var ~lo:0.0 ~hi:10.0 m in
  (* x <= 10 z *)
  Model.add_constr m [ (x, 1.0); (z, -10.0) ] Model.Le 0.0;
  (* paying a fixed cost 3 for z, reward 1 per unit x *)
  Model.set_objective m Model.Maximize [ (x, 1.0); (z, -3.0) ];
  check_opt "mixed" 7.0 (Milp.solve m)

let test_node_limit_bound_sound () =
  (* with max_nodes = 1 the search stops immediately, but the reported
     bound must still over-approximate the true optimum (6.0) *)
  let m = Model.create () in
  let vars = Array.init 6 (fun _ ->
      Model.add_var ~integer:true ~lo:0.0 ~hi:1.0 m) in
  Model.add_constr m
    (Array.to_list (Array.map (fun v -> (v, 1.0)) vars))
    Model.Le 3.0;
  Model.set_objective m Model.Maximize
    (Array.to_list (Array.map (fun v -> (v, 2.0)) vars));
  let r =
    Milp.solve ~options:{ Milp.default_options with Milp.max_nodes = 1 } m
  in
  Alcotest.(check bool) "bound sound" true (r.Milp.bound >= 6.0 -. 1e-9)

let test_objective_override () =
  let m = Model.create () in
  let x = Model.add_var ~integer:true ~lo:0.0 ~hi:5.0 m in
  let y = Model.add_var ~lo:0.0 ~hi:1.0 m in
  Model.add_constr m [ (x, 1.0); (y, 1.0) ] Model.Le 3.7;
  Model.set_objective m Model.Maximize [ (x, 1.0) ];
  check_opt "default obj" 3.0 (Milp.solve m);
  check_opt "override"
    3.7
    (Milp.solve ~objective:(Model.Maximize, [ (x, 1.0); (y, 1.0) ]) m);
  check_opt "override min" 0.0
    (Milp.solve ~objective:(Model.Minimize, [ (x, 1.0) ]) m)

(* property: random binary MILPs vs exhaustive enumeration *)
let random_binary_milp =
  let gen = QCheck.Gen.(pair (int_range 2 6) (int_range 0 1000000)) in
  Test_seed.to_alcotest
    (QCheck.Test.make ~count:120 ~name:"binary MILP matches enumeration"
       (QCheck.make gen)
       (fun (n, seed) ->
         let rng = Random.State.make [| seed |] in
         let rf lo hi = lo +. Random.State.float rng (hi -. lo) in
         let weights = Array.init n (fun _ -> rf (-3.0) 3.0) in
         let values = Array.init n (fun _ -> rf (-3.0) 3.0) in
         let budget = rf (-1.0) 4.0 in
         let m = Model.create () in
         let vars =
           Array.init n (fun _ ->
               Model.add_var ~integer:true ~lo:0.0 ~hi:1.0 m)
         in
         Model.add_constr m
           (Array.to_list (Array.mapi (fun i v -> (v, weights.(i))) vars))
           Model.Le budget;
         Model.set_objective m Model.Maximize
           (Array.to_list (Array.mapi (fun i v -> (v, values.(i))) vars));
         let r = Milp.solve m in
         (* exhaustive *)
         let best = ref neg_infinity in
         for mask = 0 to (1 lsl n) - 1 do
           let w = ref 0.0 and v = ref 0.0 in
           for i = 0 to n - 1 do
             if mask land (1 lsl i) <> 0 then begin
               w := !w +. weights.(i);
               v := !v +. values.(i)
             end
           done;
           if !w <= budget +. 1e-9 && !v > !best then best := !v
         done;
         match r.Milp.status with
         | Milp.Optimal -> feq ~eps:1e-5 r.Milp.obj !best
         | Milp.Infeasible -> !best = neg_infinity
         | Milp.Unbounded | Milp.Limit | Milp.Lp_failure -> false))

(* property: mixed binary/continuous MILPs vs enumeration over the
   binaries (continuous part solved by LP per assignment) *)
let random_mixed_milp =
  let gen = QCheck.Gen.(pair (int_range 2 4) (int_range 0 1000000)) in
  Test_seed.to_alcotest
    (QCheck.Test.make ~count:50 ~name:"mixed MILP matches enumeration"
       (QCheck.make gen)
       (fun (n, seed) ->
         let rng = Random.State.make [| seed; 0xabc |] in
         let rf lo hi = lo +. Random.State.float rng (hi -. lo) in
         let build fixed =
           (* binary vars first (optionally fixed), one continuous var *)
           let m = Lp.Model.create () in
           let bins =
             Array.init n (fun k ->
                 match fixed with
                 | Some mask ->
                     let v = if mask land (1 lsl k) <> 0 then 1.0 else 0.0 in
                     Lp.Model.add_var ~lo:v ~hi:v m
                 | None ->
                     Lp.Model.add_var ~integer:true ~lo:0.0 ~hi:1.0 m)
           in
           let x = Lp.Model.add_var ~lo:0.0 ~hi:2.0 m in
           (m, bins, x)
         in
         let weights = Array.init n (fun _ -> rf 0.2 2.0) in
         let budget = rf 0.5 3.0 in
         let values = Array.init n (fun _ -> rf (-1.0) 2.0) in
         let add_constrs m bins x =
           (* sum w b + x <= budget, and x >= 0.3 * sum b (a Ge row) *)
           Lp.Model.add_constr m
             ((x, 1.0)
              :: Array.to_list (Array.mapi (fun k b -> (b, weights.(k))) bins))
             Lp.Model.Le budget;
           Lp.Model.add_constr m
             ((x, 1.0)
              :: Array.to_list (Array.map (fun b -> (b, -0.3)) bins))
             Lp.Model.Ge 0.0;
           Lp.Model.set_objective m Lp.Model.Maximize
             ((x, 1.0)
              :: Array.to_list (Array.mapi (fun k b -> (b, values.(k))) bins))
         in
         let m, bins, x = build None in
         add_constrs m bins x;
         let r = Milp.solve m in
         (* enumerate binary assignments, solve the continuous LP each *)
         let best = ref neg_infinity in
         for mask = 0 to (1 lsl n) - 1 do
           let m2, bins2, x2 = build (Some mask) in
           add_constrs m2 bins2 x2;
           let s = Lp.Simplex.solve m2 in
           if s.Lp.Simplex.status = Lp.Simplex.Optimal
              && s.Lp.Simplex.obj > !best
           then best := s.Lp.Simplex.obj
         done;
         match r.Milp.status with
         | Milp.Optimal -> Float.abs (r.Milp.obj -. !best) <= 1e-5
         | Milp.Infeasible -> !best = neg_infinity
         | Milp.Unbounded | Milp.Limit | Milp.Lp_failure -> false))

(* A box of at most four integer assignments is enumerated, not
   searched: on random 2-binary models (the certifier's exact output
   relation has this shape) the result is the max of the four pinned
   LPs, with one node and no canonical re-solve. *)
let test_two_binary_enumeration () =
  let counter name = Option.value ~default:0.0 (Obs.Metrics.find name) in
  for seed = 0 to 29 do
    let rng = Random.State.make [| seed; 0xe4 |] in
    let rf lo hi = lo +. Random.State.float rng (hi -. lo) in
    let m = Model.create () in
    let bins =
      Array.init 2 (fun _ -> Model.add_var ~integer:true ~lo:0.0 ~hi:1.0 m)
    in
    let xs = Array.init 3 (fun _ -> Model.add_var ~lo:(-1.0) ~hi:1.0 m) in
    for _ = 1 to 3 do
      Model.add_constr m
        (Array.to_list (Array.map (fun v -> (v, rf (-2.0) 2.0)) bins)
        @ Array.to_list (Array.map (fun v -> (v, rf (-2.0) 2.0)) xs))
        Model.Le (rf (-0.5) 2.0)
    done;
    Model.set_objective m Model.Maximize
      (Array.to_list
         (Array.map (fun v -> (v, rf (-2.0) 2.0)) (Array.append bins xs)));
    let cp = Lp.Simplex.compile m in
    let best = ref neg_infinity in
    for mask = 0 to 3 do
      let lo, hi = Lp.Simplex.default_bounds cp in
      Array.iteri
        (fun k b ->
          let v = float_of_int ((mask lsr k) land 1) in
          lo.(b) <- v;
          hi.(b) <- v)
        bins;
      let s = Lp.Simplex.solve_compiled cp ~lo ~hi in
      if s.Lp.Simplex.status = Lp.Simplex.Optimal then
        best := Float.max !best s.Lp.Simplex.obj
    done;
    let canonical0 = counter "milp.solves.canonical"
    and enumerate0 = counter "milp.solves.enumerate" in
    let a = Milp.solve m in
    let ran name n0 = int_of_float (counter name -. n0) in
    Alcotest.(check int) "no canonical solves" 0
      (ran "milp.solves.canonical" canonical0);
    if a.Milp.status <> Milp.Infeasible || !best > neg_infinity then
      Alcotest.(check int) "four enumerated solves" 4
        (ran "milp.solves.enumerate" enumerate0);
    Alcotest.(check int) "one node" 1 a.Milp.nodes;
    if !best = neg_infinity then
      Alcotest.(check string) "infeasible" "infeasible"
        (status_str a.Milp.status)
    else begin
      check_opt (Printf.sprintf "seed %d" seed) !best a;
      if Float.abs (a.Milp.obj -. !best) > 1e-9 *. Float.max 1.0 !best then
        Alcotest.failf "seed %d: %.17g is not the pinned max %.17g" seed
          a.Milp.obj !best
    end
  done

let suites =
  [ ( "milp:branch-and-bound",
      [ Alcotest.test_case "knapsack" `Quick test_knapsack;
        Alcotest.test_case "pure LP passthrough" `Quick
          test_pure_lp_passthrough;
        Alcotest.test_case "integer infeasible" `Quick
          test_integer_infeasible;
        Alcotest.test_case "general integers" `Quick test_general_integer;
        Alcotest.test_case "mixed binary/continuous" `Quick test_mixed;
        Alcotest.test_case "node-limit bound sound" `Quick
          test_node_limit_bound_sound;
        Alcotest.test_case "objective override" `Quick
          test_objective_override;
        Alcotest.test_case "2-binary enumeration" `Quick
          test_two_binary_enumeration;
        random_binary_milp;
        random_mixed_milp ] ) ]
