module Model = Lp.Model

type result = {
  eps : float array;
  per_output : Interval.t array;
  exact : bool;
  nodes : int;
  runtime : float;
}

(* Tight per-neuron bounds shrink the big-M constants and the search
   tree dramatically; a relaxed Algorithm-1 pass is cheap compared to
   the exact search it accelerates (Gurobi gets the same effect from
   its presolve). *)
let prepare net ~input ~delta =
  let config = { Certifier.default_config with Certifier.margin = 0.0 } in
  let bounds = (Certifier.certify ~config net ~input ~delta).Certifier.bounds in
  (bounds, Subnet.full net, Nn.Network.output_dim net)

let run_queries ~out_dim ~milp_options ~model ~terms_of =
  let nodes = ref 0 and exact = ref true in
  let per_output =
    Array.init out_dim (fun j ->
        let solve dir =
          let r = Milp.solve ~options:milp_options ~objective:(dir, terms_of j)
              model in
          nodes := !nodes + r.Milp.nodes;
          (match r.Milp.status with
           | Milp.Optimal -> ()
           | Milp.Limit | Milp.Lp_failure | Milp.Infeasible | Milp.Unbounded ->
               exact := false);
          r.Milp.bound
        in
        let hi = solve Model.Maximize in
        let lo = solve Model.Minimize in
        if Float.is_nan lo || Float.is_nan hi then begin
          exact := false;
          Interval.top
        end
        else Interval.make (Float.min lo hi) (Float.max lo hi))
  in
  (per_output, !nodes, !exact)

let global_btne ?(milp_options = Milp.default_options) net ~input ~delta =
  let t0 = Unix.gettimeofday () in
  let bounds, view, out_dim = prepare net ~input ~delta in
  let enc =
    Encode.btne ~link_input_dist:true ~mode:Encode.Exact ~bounds view
  in
  let per_output, nodes, exact =
    run_queries ~out_dim ~milp_options ~model:enc.Encode.model
      ~terms_of:(Encode.btne_out_delta enc)
  in
  { eps = Array.map Interval.abs_max per_output; per_output; exact; nodes;
    runtime = Unix.gettimeofday () -. t0 }

let global_itne ?(milp_options = Milp.default_options) net ~input ~delta =
  let t0 = Unix.gettimeofday () in
  let bounds, view, out_dim = prepare net ~input ~delta in
  let enc = Encode.itne ~mode:Encode.Exact ~include_output_relu:true ~bounds
      view in
  let last = Nn.Network.n_layers net - 1 in
  let terms_of j =
    let nv = Encode.itne_vars enc last j in
    match nv.Encode.dx with
    | Some dxv -> [ (dxv, 1.0) ]
    | None -> [ (nv.Encode.dy, 1.0) ]
  in
  let per_output, nodes, exact =
    run_queries ~out_dim ~milp_options ~model:enc.Encode.model ~terms_of
  in
  { eps = Array.map Interval.abs_max per_output; per_output; exact; nodes;
    runtime = Unix.gettimeofday () -. t0 }
