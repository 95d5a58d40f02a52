type refine_rule = Refine.rule = No_refine | Count of int | Fraction of float

type config = {
  window : int;
  refine : refine_rule;
  milp_options : Milp.options;
  margin : float;
  mode : Encode.mode;
  domains : int;
  dedup : bool;
}

let default_config =
  { window = 2; refine = No_refine; milp_options = Milp.default_options;
    margin = 1e-6; mode = Encode.Relaxed; domains = 1; dedup = true }

type report = {
  eps : float array;
  bounds : Bounds.t;
  runtime : float;
}

(* Tighten [current] with a (max-query upper, min-query lower) pair,
   falling back to [current] on query failure.  Endpoint improvements
   below the noise guard are indistinguishable from LP/MILP numerical
   noise and are rejected. *)
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

let certify ?(config = default_config) ?solve_hook net ~input ~delta =
  Obs.Trace.with_span "certify" @@ fun () ->
  Obs.Metrics.add m_certifies 1;
  let t0 = Unix.gettimeofday () in
  let bounds = Interval_prop.propagate_box net ~input ~delta in
  let pconfig =
    { Planner.window = config.window; refine = config.refine;
      mode = config.mode; dedup = config.dedup }
  in
  let exec_config =
    { Plan.Executor.domains = config.domains;
      milp_options = config.milp_options }
  in
  (* pick the bound table a query's quantity refreshes *)
  let table = function
    | Plan.Query.Y -> bounds.Bounds.y
    | Plan.Query.Dy -> bounds.Bounds.dy
    | Plan.Query.Dx -> bounds.Bounds.dx
  in
  (* run one layer-pass plan and fold its answers into [bounds] *)
  let run_plan plan =
    let record metric name n =
      Obs.Metrics.add metric n;
      Obs.Trace.count name n
    in
    record m_bound_queries "bound_queries" (Plan.n_queries plan);
    record m_encoded_models "encoded_models" (Plan.n_encodes plan);
    record m_dedup_hits "dedup_hits" (Plan.dedup_hits plan);
    let outcome = Plan.Executor.run ?hook:solve_hook exec_config plan in
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
  { eps; bounds; runtime = Unix.gettimeofday () -. t0 }

let certify_box ?config ?solve_hook net ~lo ~hi ~delta =
  certify ?config ?solve_hook net
    ~input:(Bounds.box_domain net ~lo ~hi) ~delta
