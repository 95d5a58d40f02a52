type refine_rule = Refine.rule = No_refine | Count of int | Fraction of float

type sym_mode = Sym_off | Sym_back

type config = {
  window : int;
  refine : refine_rule;
  milp_options : Milp.options;
  margin : float;
  mode : Encode.mode;
  exact_output_relation : bool;
  domains : int;
  symbolic : sym_mode;
  dedup : bool;
  branch : Search.Strategy.t;
}

let default_config =
  { window = 2; refine = No_refine; milp_options = Milp.default_options;
    margin = 1e-6; mode = Encode.Relaxed; exact_output_relation = true;
    domains = 1; symbolic = Sym_off; dedup = true;
    branch = Search.Strategy.Most_fractional }

type report = {
  eps : float array;
  bounds : Bounds.t;
  lp_solves : int;
  milp_solves : int;
  lp_pivots : int;
  lp_warm_solves : int;
  bound_queries : int;
  encoded_models : int;
  dedup_hits : int;
  symbolic_conclusive : int;
  symbolic_seeded : int;
  symbolic_stable_relus : int;
  runtime : float;
}

(* Tighten [current] with a (max-query upper, min-query lower) pair,
   falling back to [current] on query failure.  Endpoint improvements
   below the noise guard are indistinguishable from LP/MILP numerical
   noise and are rejected; this is what makes the planner's
   symbolic-conclusive skips bitwise neutral — a statically answered
   no-op query folds to exactly what running the solver would have. *)
let refreshed_interval current ~lo_query ~hi_query =
  let g = Interval.noise_guard current in
  let lo =
    match lo_query with
    | Some v when v > current.Interval.lo +. g -> v
    | _ -> current.Interval.lo
  in
  let hi =
    match hi_query with
    | Some v when v < current.Interval.hi -. g -> v
    | _ -> current.Interval.hi
  in
  if lo > hi then current else Interval.make lo hi

let m_certifies = Obs.Metrics.counter "certifier.certifies"
let m_bound_queries = Obs.Metrics.counter "certifier.bound_queries"
let m_encoded_models = Obs.Metrics.counter "certifier.encoded_models"
let m_dedup_hits = Obs.Metrics.counter "certifier.dedup_hits"
let m_sym_conclusive = Obs.Metrics.counter "symbolic.conclusive"
let m_sym_seeded = Obs.Metrics.counter "symbolic.seeded"

let certify ?(config = default_config) ?pool ?solve_hook net ~input ~delta =
  Obs.Trace.with_span "certify" @@ fun () ->
  Obs.Metrics.add m_certifies 1;
  let t0 = Unix.gettimeofday () in
  let stats = Plan.Engine.zero_stats () in
  let bound_queries = ref 0 and encoded_models = ref 0 and dedup_hits = ref 0 in
  let sym_conclusive = ref 0 and sym_seeded = ref 0 in
  let bounds =
    Bounds.create net ~input ~input_dist:(Bounds.uniform_delta net delta)
  in
  Interval_prop.propagate net bounds;
  (* [Sym_back] analyses a shadow copy: the pipeline bounds stay bitwise
     untouched and the analysis acts through the planner — conclusive
     query skips and strictly tighter seeds only — so certified eps is
     unchanged whenever the fast path declines. *)
  let stable_relus = ref 0 in
  let shadow =
    match config.symbolic with
    | Sym_off -> None
    | Sym_back ->
        let sh = Bounds.copy bounds in
        let analysis = Symbolic_back.analyse net sh in
        stable_relus := analysis.Symbolic_back.stable_relus;
        Some sh
  in
  (* cross-layer dual-sensitivity accumulator: layer i's solves inform
     the refinement selection of every later layer's cones.  Allocated
     only under the guided strategy, so the default path plans (and
     certifies) bit-identically to before. *)
  let dual_sens =
    match config.branch with
    | Search.Strategy.Dual_guided -> Some (Hashtbl.create 64)
    | Search.Strategy.Most_fractional -> None
  in
  let pconfig =
    { Planner.window = config.window; refine = config.refine;
      mode = config.mode;
      exact_output_relation = config.exact_output_relation;
      dedup = config.dedup; symbolic_shadow = shadow;
      branch = config.branch; dual_sens }
  in
  let exec_config =
    { Plan.Executor.domains = config.domains;
      milp_options = { config.milp_options with Milp.branch = config.branch }
    }
  in
  (* pick the bound table a query's quantity refreshes *)
  let table = function
    | Plan.Query.Y -> bounds.Bounds.y
    | Plan.Query.Dy -> bounds.Bounds.dy
    | Plan.Query.Dx -> bounds.Bounds.dx
  in
  (* run one layer-pass plan and fold its answers into [bounds] *)
  let run_plan plan =
    bound_queries := !bound_queries + plan.Plan.n_queries;
    encoded_models := !encoded_models + plan.Plan.n_encodes;
    dedup_hits := !dedup_hits + plan.Plan.dedup_hits;
    sym_conclusive := !sym_conclusive + plan.Plan.symbolic_conclusive;
    sym_seeded := !sym_seeded + plan.Plan.symbolic_seeded;
    Obs.Metrics.add m_bound_queries plan.Plan.n_queries;
    Obs.Metrics.add m_encoded_models plan.Plan.n_encodes;
    Obs.Metrics.add m_dedup_hits plan.Plan.dedup_hits;
    Obs.Metrics.add m_sym_conclusive plan.Plan.symbolic_conclusive;
    Obs.Metrics.add m_sym_seeded plan.Plan.symbolic_seeded;
    Obs.Trace.count "bound_queries" plan.Plan.n_queries;
    Obs.Trace.count "encoded_models" plan.Plan.n_encodes;
    Obs.Trace.count "dedup_hits" plan.Plan.dedup_hits;
    if plan.Plan.symbolic_conclusive > 0 then
      Obs.Trace.count "symbolic_conclusive" plan.Plan.symbolic_conclusive;
    if plan.Plan.symbolic_seeded > 0 then
      Obs.Trace.count "symbolic_seeded" plan.Plan.symbolic_seeded;
    (* [partial_stats] (not the returned stats) feeds the report: a
       raising solve hook still accounts for the work already done *)
    let outcome =
      Plan.Executor.run ?hook:solve_hook ?pool ~partial_stats:stats
        exec_config plan
    in
    (match dual_sens with
     | None -> ()
     | Some table ->
         Array.iter
           (fun (key, s) ->
             match Hashtbl.find_opt table key with
             | Some prev -> Hashtbl.replace table key (prev +. s)
             | None -> Hashtbl.replace table key s)
           outcome.Plan.Executor.dual_sens);
    (* affine fast-path answers are exact: intersect *)
    Array.iter
      (fun ((a : Plan.affine), (r : Plan.range)) ->
        let t = table a.Plan.a_quantity in
        match
          Interval.meet
            t.(a.Plan.a_layer).(a.Plan.a_neuron)
            { Interval.lo = r.Plan.lo; hi = r.Plan.hi }
        with
        | Some iv -> t.(a.Plan.a_layer).(a.Plan.a_neuron) <- iv
        | None -> ())
      outcome.Plan.Executor.affine;
    (* LP answers arrive as (hi, lo) pairs per quantity: refresh *)
    let solved = outcome.Plan.Executor.solved in
    let n = Array.length solved in
    let k = ref 0 in
    while !k + 1 < n do
      let q, hi_query = solved.(!k) in
      let q', lo_query = solved.(!k + 1) in
      assert (Plan.Query.same_cell q q');
      let t = table q.Plan.Query.quantity in
      let i = q.Plan.Query.layer and j = q.Plan.Query.neuron in
      t.(i).(j) <- refreshed_interval t.(i).(j) ~lo_query ~hi_query;
      k := !k + 2
    done
  in
  let n = Nn.Network.n_layers net in
  for i = 0 to n - 1 do
    Obs.Trace.with_span "certify.layer" @@ fun () ->
    Obs.Trace.count "layer" i;
    let layer = Nn.Network.layer net i in
    let m = Nn.Layer.out_dim layer in
    (* --- y / dy ranges (LpRelaxY) --- *)
    Obs.Trace.with_span "plan.values" (fun () ->
        run_plan (Planner.plan_values pconfig bounds net ~layer:i));
    (* --- x / dx ranges (LpRelaxX) --- *)
    if not layer.Nn.Layer.relu then
      for j = 0 to m - 1 do
        bounds.Bounds.x.(i).(j) <- bounds.Bounds.y.(i).(j);
        bounds.Bounds.dx.(i).(j) <- bounds.Bounds.dy.(i).(j)
      done
    else begin
      (* x = relu(y) is monotone: the interval transfer is exact given
         the y range; apply it (and the distance transfer) first *)
      for j = 0 to m - 1 do
        let y_iv = bounds.Bounds.y.(i).(j) in
        let dy_iv = bounds.Bounds.dy.(i).(j) in
        (match Interval.meet bounds.Bounds.x.(i).(j) (Interval.relu y_iv) with
         | Some iv -> bounds.Bounds.x.(i).(j) <- iv
         | None -> ());
        match
          Interval.meet bounds.Bounds.dx.(i).(j)
            (Interval.relu_dist ~y:y_iv ~dy:dy_iv)
        with
        | Some iv -> bounds.Bounds.dx.(i).(j) <- iv
        | None -> ()
      done;
      Obs.Trace.with_span "plan.dx" (fun () ->
          run_plan (Planner.plan_dx pconfig bounds net ~layer:i))
    end
  done;
  let eps =
    Array.map
      (fun iv -> Interval.abs_max iv +. config.margin)
      (Bounds.output_dist bounds net)
  in
  { eps; bounds;
    lp_solves = stats.Plan.Engine.lp_solves;
    milp_solves = stats.Plan.Engine.milp_solves;
    lp_pivots = stats.Plan.Engine.lp_pivots;
    lp_warm_solves = stats.Plan.Engine.lp_warm;
    bound_queries = !bound_queries;
    encoded_models = !encoded_models;
    dedup_hits = !dedup_hits;
    symbolic_conclusive = !sym_conclusive;
    symbolic_seeded = !sym_seeded;
    symbolic_stable_relus = !stable_relus;
    runtime = Unix.gettimeofday () -. t0 }

let certify_box ?config ?pool ?solve_hook net ~lo ~hi ~delta =
  certify ?config ?pool ?solve_hook net
    ~input:(Bounds.box_domain net ~lo ~hi) ~delta
