(* Query-plan / executor layer: chunked fan-out, planner fast path vs
   LP ground truth, cone deduplication, executor hooks. *)

let pconfig =
  { Cert.Planner.window = 2; refine = Cert.Refine.No_refine;
    mode = Cert.Encode.Relaxed; dedup = true }

let random_net ~rng ~relu ~dims =
  let rec build = function
    | a :: (b :: _ as rest) ->
        Nn.Layer.dense_random ~relu ~rng ~in_dim:a ~out_dim:b ()
        :: build rest
    | _ -> []
  in
  Nn.Network.make (build dims)

let box_bounds net ~lo ~hi ~delta =
  let input = Cert.Bounds.box_domain net ~lo ~hi in
  let bounds =
    Cert.Bounds.create net ~input
      ~input_dist:(Cert.Bounds.uniform_delta net delta)
  in
  Cert.Interval_prop.propagate net bounds;
  bounds

(* --- parallel_map: totality and order over an n x domains grid --- *)

(* regression: chunk arithmetic used to raise Invalid_argument when
   ceil-division made a trailing chunk start past the item count
   (e.g. 5 items over 4 domains) *)
let test_parallel_map_grid () =
  for n = 0 to 9 do
    for domains = 1 to 6 do
      let items = Array.init n (fun i -> i) in
      let processed = Atomic.make 0 in
      let results =
        Plan.Executor.parallel_map domains ~init:(fun () -> ()) items
          (fun () x ->
            Atomic.incr processed;
            (3 * x) + 1)
      in
      Alcotest.(check (array int))
        (Printf.sprintf "results n=%d domains=%d" n domains)
        (Array.init n (fun i -> (3 * i) + 1))
        results;
      Alcotest.(check int)
        (Printf.sprintf "totality n=%d domains=%d" n domains)
        n (Atomic.get processed)
    done
  done

(* --- planner affine fast path vs LP on ReLU-free windows --- *)

(* every composed row evaluated over the input box must agree with the
   LP optimum of the same row over the same box: a linear objective over
   a box is solved exactly at a vertex, which is what the interval
   evaluation computes *)
let affine_matches_lp (a : Plan.affine) =
  let model = Lp.Model.create () in
  let terms =
    List.map
      (fun (c, (r : Plan.range)) ->
        (Lp.Model.add_var ~lo:r.Plan.lo ~hi:r.Plan.hi model, c))
      a.Plan.a_terms
  in
  let opt dir =
    Lp.Model.set_objective model dir ~const:a.Plan.a_const terms;
    let sol = Lp.Simplex.solve model in
    match sol.Lp.Simplex.status with
    | Lp.Simplex.Optimal -> sol.Lp.Simplex.obj
    | _ -> Alcotest.fail "box LP not optimal"
  in
  let ev = Plan.eval_affine a in
  let tol v = 1e-9 *. Float.max 1.0 (Float.abs v) in
  let lo_lp = opt Lp.Model.Minimize and hi_lp = opt Lp.Model.Maximize in
  Float.abs (ev.Plan.lo -. lo_lp) <= tol lo_lp
  && Float.abs (ev.Plan.hi -. hi_lp) <= tol hi_lp

let affine_box_lp_prop =
  let gen = QCheck.Gen.(pair (int_range 0 100000) (int_range 2 6)) in
  Test_seed.to_alcotest
    (QCheck.Test.make ~count:50 ~name:"affine fast path agrees with LP"
       (QCheck.make gen)
       (fun (seed, width) ->
         let rng = Random.State.make [| seed |] in
         (* no ReLU anywhere: every window takes the affine fast path *)
         let net = random_net ~rng ~relu:false ~dims:[ 3; width; width; 2 ] in
         let bounds = box_bounds net ~lo:(-1.0) ~hi:1.0 ~delta:0.05 in
         let ok = ref true in
         for i = 0 to Nn.Network.n_layers net - 1 do
           let plan = Cert.Planner.plan_values pconfig bounds net ~layer:i in
           if Array.length plan.Plan.tasks <> 0 then ok := false;
           Array.iter
             (fun a -> if not (affine_matches_lp a) then ok := false)
             plan.Plan.affine
         done;
         !ok))

(* --- cone deduplication on a conv network --- *)

let conv_net ~rng =
  let in_shape = { Nn.Layer.c = 1; h = 6; w = 6 } in
  let conv =
    Nn.Layer.conv2d_random ~relu:true ~rng ~in_shape ~out_chans:1 ~kh:3 ~kw:3
      ~stride:1 ~pad:0 ()
  in
  let out_size = Nn.Layer.out_dim conv in
  Nn.Network.make
    [ conv; Nn.Layer.dense_random ~rng ~in_dim:out_size ~out_dim:1 () ]

let test_conv_dedup_identical () =
  let rng = Random.State.make [| 11 |] in
  let net = conv_net ~rng in
  let input = Cert.Bounds.box_domain net ~lo:0.0 ~hi:1.0 in
  let certify dedup =
    let config = { Cert.Certifier.default_config with Cert.Certifier.dedup } in
    Cert.Certifier.certify ~config net ~input ~delta:0.01
  in
  (* the certifier's work counts live in the metrics registry: read
     each certify's deltas *)
  let metric k =
    int_of_float (Option.value ~default:0.0 (Obs.Metrics.find k))
  in
  let counted dedup =
    let q0 = metric "certifier.bound_queries"
    and e0 = metric "certifier.encoded_models"
    and h0 = metric "certifier.dedup_hits" in
    let r = certify dedup in
    ( r,
      metric "certifier.bound_queries" - q0,
      metric "certifier.encoded_models" - e0,
      metric "certifier.dedup_hits" - h0 )
  in
  let on, on_queries, on_encodes, on_hits = counted true in
  let off, off_queries, off_encodes, off_hits = counted false in
  (* dedup is a pure execution-plan optimisation: certified bounds must
     be bitwise identical with it on or off *)
  Alcotest.(check (array (float 0.0)))
    "eps identical" off.Cert.Certifier.eps on.Cert.Certifier.eps;
  Alcotest.(check int) "same queries" off_queries on_queries;
  Alcotest.(check bool) "dedup fires" true (on_hits > 0);
  Alcotest.(check bool) "fewer encodes than queries" true
    (on_encodes < on_queries);
  Alcotest.(check bool) "dedup reduces encodes" true
    (on_encodes < off_encodes);
  Alcotest.(check int) "no hits when off" 0 off_hits

(* --- cone signatures: invariant to window-input intervals only --- *)

let test_signature_input_invariant () =
  let rng = Random.State.make [| 5 |] in
  let net = random_net ~rng ~relu:true ~dims:[ 3; 5; 4 ] in
  let bounds = box_bounds net ~lo:(-1.0) ~hi:1.0 ~delta:0.05 in
  let view = Cert.Subnet.cone net ~last:1 ~targets:[| 0; 1 |] ~window:2 in
  let sign () =
    Cert.Planner.signature ~mode:Cert.Encode.Relaxed
      ~include_output_relu:false ~refined:[] bounds view
  in
  let s0 = sign () in
  (* window inputs (the network input box here) are replay overrides:
     changing them must not change the signature *)
  bounds.Cert.Bounds.input.(0) <- Cert.Interval.make (-0.5) 0.25;
  Alcotest.(check string) "input intervals excluded" s0 (sign ());
  (* interior interval data is baked into the encoding: changing it
     must change the signature *)
  let saved = bounds.Cert.Bounds.y.(0).(0) in
  bounds.Cert.Bounds.y.(0).(0) <- Cert.Interval.make (-123.0) 456.0;
  Alcotest.(check bool) "interior intervals included" false (s0 = sign ());
  bounds.Cert.Bounds.y.(0).(0) <- saved

(* --- executor: hook sees every planned query, results in plan order --- *)

let test_executor_hook_and_order () =
  let rng = Random.State.make [| 21 |] in
  let net = random_net ~rng ~relu:true ~dims:[ 3; 6; 4 ] in
  let bounds = box_bounds net ~lo:(-1.0) ~hi:1.0 ~delta:0.05 in
  let plan = Cert.Planner.plan_values pconfig bounds net ~layer:1 in
  Alcotest.(check bool) "plan has LP work" true (Plan.n_queries plan > 0);
  let seen = Atomic.make 0 in
  let hook base req =
    Atomic.incr seen;
    base req
  in
  let run domains =
    Plan.Executor.run ~hook
      { Plan.Executor.domains; milp_options = Milp.default_options }
      plan
  in
  let seq = run 1 in
  let hooked = Atomic.get seen in
  Alcotest.(check int) "hook sees every query" (Plan.n_queries plan) hooked;
  Alcotest.(check int) "one answer per query" (Plan.n_queries plan)
    (Array.length seq.Plan.Executor.solved);
  let par = run 4 in
  (* answers come back in plan order regardless of worker scheduling *)
  let queries o =
    Array.map (fun (q, _) -> Plan.Query.to_string q) o.Plan.Executor.solved
  in
  Alcotest.(check (array string)) "plan order" (queries seq) (queries par);
  Array.iteri
    (fun k (_, v) ->
      match (v, snd par.Plan.Executor.solved.(k)) with
      | Some a, Some b ->
          if Float.abs (a -. b) > 1e-9 *. Float.max 1.0 (Float.abs a) then
            Alcotest.failf "query %d: %.17g vs %.17g" k a b
      | None, None -> ()
      | _ -> Alcotest.failf "query %d: solved/unsolved mismatch" k)
    seq.Plan.Executor.solved

(* --- parallel_map: a worker failure joins every domain first --- *)

(* the exception surfaces only after every domain is joined: the other
   workers (slowed down here, so an early re-raise would overtake them)
   have run their chunks to completion by the time the caller sees it *)
let test_parallel_map_finally () =
  let items = Array.init 8 (fun i -> i) in
  let ran = Atomic.make 0 in
  (match
     Plan.Executor.parallel_map 4 ~init:(fun () -> ()) items (fun () x ->
         if x = 5 then failwith "boom";
         if x / 2 <> 5 / 2 then Unix.sleepf 0.05;
         Atomic.incr ran;
         x)
   with
  | _ -> Alcotest.fail "worker exception did not propagate"
  | exception Failure msg ->
      Alcotest.(check string) "the worker's exception" "boom" msg);
  (* chunks of two: the failing worker finished item 4, the other three
     every item of theirs *)
  Alcotest.(check int) "surviving chunks completed" 7 (Atomic.get ran)

(* --- plan audit: well-formed plans are clean, corrupt contents are not --- *)

let test_plan_audit () =
  let rng = Random.State.make [| 33 |] in
  let net = random_net ~rng ~relu:true ~dims:[ 3; 6; 4 ] in
  let bounds = box_bounds net ~lo:(-1.0) ~hi:1.0 ~delta:0.05 in
  let plan = Cert.Planner.plan_values pconfig bounds net ~layer:1 in
  let errors ds =
    Audit_core.Diag.count Audit_core.Diag.Error (Audit.Plan_check.check ds)
  in
  Alcotest.(check int) "planner output is clean" 0 (errors plan);
  (* point the first unit's first query at a variable past the end of
     its task's model *)
  let u = plan.Plan.units.(0) in
  let n_vars = Lp.Model.n_vars plan.Plan.tasks.(u.Plan.task_id).Plan.model in
  let queries = Array.copy u.Plan.queries in
  queries.(0) <- { (queries.(0)) with Plan.terms = [ (n_vars, 1.0) ] };
  let units = Array.copy plan.Plan.units in
  units.(0) <- { u with Plan.queries };
  let codes =
    List.filter_map
      (fun (d : Audit_core.Diag.t) ->
        if d.Audit_core.Diag.severity = Audit_core.Diag.Error then
          Some d.Audit_core.Diag.code
        else None)
      (Audit.Plan_check.check { plan with Plan.units })
  in
  Alcotest.(check (list string)) "out-of-model query variable detected"
    [ "query-var-range" ] codes

let suites =
  [ ( "plan:executor",
      [ Alcotest.test_case "parallel_map grid" `Quick test_parallel_map_grid;
        Alcotest.test_case "hook and order" `Quick
          test_executor_hook_and_order;
        Alcotest.test_case "parallel_map finally" `Quick
          test_parallel_map_finally ] );
    ( "plan:planner",
      [ affine_box_lp_prop;
        Alcotest.test_case "signature input-invariant" `Quick
          test_signature_input_invariant;
        Alcotest.test_case "audit" `Quick test_plan_audit ] );
    ( "plan:dedup",
      [ Alcotest.test_case "conv dedup identical" `Quick
          test_conv_dedup_identical ] ) ]
