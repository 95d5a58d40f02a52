type result = { delta_out : Interval.t array; runtime : float }

let btne_nd ?(milp_options = Milp.default_options) ~window net ~input ~delta =
  let t0 = Unix.gettimeofday () in
  let bounds = Interval_prop.propagate_box net ~input ~delta in
  (* per-copy boxes: identical for both copies, so computed once *)
  Local.propagate_boxes ~milp_options ~window net bounds;
  let n = Nn.Network.n_layers net in
  let out_dim = Nn.Network.output_dim net in
  let w = min n window in
  let view =
    Subnet.cone net ~last:(n - 1) ~targets:(Array.init out_dim Fun.id)
      ~window:w
  in
  (* distance information survives only if the final window reaches the
     network input *)
  let link = view.Subnet.first = 0 in
  let enc = Encode.btne ~link_input_dist:link ~mode:Encode.Exact ~bounds view in
  let delta_out =
    Array.init out_dim (fun j ->
        Local.solve_range ~milp_options enc.Encode.model
          (Encode.btne_out_delta enc j))
  in
  { delta_out; runtime = Unix.gettimeofday () -. t0 }

let btne_lpr net ~input ~delta =
  let t0 = Unix.gettimeofday () in
  let bounds = Interval_prop.propagate_box net ~input ~delta in
  let view = Subnet.full net in
  let enc = Encode.btne ~link_input_dist:true ~mode:Encode.Relaxed ~bounds
      view in
  let engine =
    Plan.Engine.of_session ~name:"btne-lpr"
      ~model:enc.Encode.model
      (Lp.Simplex.create_session (Lp.Simplex.compile enc.Encode.model))
  in
  let out_dim = Nn.Network.output_dim net in
  let n = Nn.Network.n_layers net in
  let delta_out =
    Array.init out_dim (fun j ->
        Local.lp_range engine
          (Encode.btne_out_delta enc j)
          (Interval.sub bounds.Bounds.x.(n - 1).(j)
             bounds.Bounds.x.(n - 1).(j)))
  in
  { delta_out; runtime = Unix.gettimeofday () -. t0 }

let itne_nd ?(milp_options = Milp.default_options) ~window net ~input ~delta =
  let t0 = Unix.gettimeofday () in
  let config =
    { Certifier.default_config with
      Certifier.window;
      mode = Encode.Exact;
      milp_options;
      margin = 0.0 }
  in
  let report = Certifier.certify ~config net ~input ~delta in
  { delta_out = Bounds.output_dist report.Certifier.bounds net;
    runtime = Unix.gettimeofday () -. t0 }

let itne_lpr net ~input ~delta =
  let t0 = Unix.gettimeofday () in
  let bounds = Interval_prop.propagate_box net ~input ~delta in
  let view = Subnet.full net in
  let enc =
    Encode.itne ~mode:Encode.Relaxed ~include_output_relu:true ~bounds view
  in
  let engine =
    Plan.Engine.of_session ~name:"itne-lpr"
      ~model:enc.Encode.model
      (Lp.Simplex.create_session (Lp.Simplex.compile enc.Encode.model))
  in
  let out_dim = Nn.Network.output_dim net in
  let last = Nn.Network.n_layers net - 1 in
  let delta_out =
    Array.init out_dim (fun j ->
        let nv = Encode.itne_vars enc last j in
        let var =
          match nv.Encode.dx with Some v -> v | None -> nv.Encode.dy
        in
        Local.lp_range engine [ (var, 1.0) ] bounds.Bounds.dx.(last).(j))
  in
  { delta_out; runtime = Unix.gettimeofday () -. t0 }
