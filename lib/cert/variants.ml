module Model = Lp.Model

type result = { delta_out : Interval.t array; runtime : float }

let global_bounds net ~input ~delta =
  let bounds =
    Bounds.create net ~input ~input_dist:(Bounds.uniform_delta net delta)
  in
  Interval_prop.propagate net bounds;
  bounds

let full_view net =
  let n = Nn.Network.n_layers net in
  let out_dim = Nn.Network.output_dim net in
  Subnet.cone net ~last:(n - 1) ~targets:(Array.init out_dim Fun.id) ~window:n

let milp_range ~milp_options model terms =
  let engine =
    Plan.Engine.of_milp (Plan.Engine.zero_stats ()) ~options:milp_options
      model
  in
  let hi = engine Model.Maximize terms in
  let lo = engine Model.Minimize terms in
  match (lo, hi) with
  | Some lo, Some hi -> Interval.make (Float.min lo hi) (Float.max lo hi)
  | _ -> Interval.top

(* all queries share one warm engine (objective-only hot starts) *)
let lp_range (engine : Plan.Engine.t) terms fallback =
  let hi = engine Model.Maximize terms in
  let lo = engine Model.Minimize terms in
  match (lo, hi) with
  | Some lo, Some hi when lo <= hi -> Interval.make lo hi
  | _ -> fallback

(* Per-copy box propagation with exact window MILPs (identical for both
   copies, so computed once). *)
let propagate_copy_boxes ~milp_options ~window net bounds =
  let n = Nn.Network.n_layers net in
  for i = 0 to n - 1 do
    let layer = Nn.Network.layer net i in
    let m = Nn.Layer.out_dim layer in
    let w = min (i + 1) window in
    let view = Subnet.cone net ~last:i ~targets:(Array.init m Fun.id)
        ~window:w in
    let enc = Encode.single ~mode:Encode.Exact ~bounds view in
    for j = 0 to m - 1 do
      let cv = Encode.single_vars enc i j in
      let y_iv =
        milp_range ~milp_options enc.Encode.model [ (cv.Encode.cy, 1.0) ]
      in
      (match Interval.meet bounds.Bounds.y.(i).(j) y_iv with
       | Some iv -> bounds.Bounds.y.(i).(j) <- iv
       | None -> ());
      bounds.Bounds.x.(i).(j) <-
        (if layer.Nn.Layer.relu then Interval.relu bounds.Bounds.y.(i).(j)
         else bounds.Bounds.y.(i).(j))
    done
  done

let btne_nd ?(milp_options = Milp.default_options) ~window net ~input ~delta =
  let t0 = Unix.gettimeofday () in
  let bounds = global_bounds net ~input ~delta in
  propagate_copy_boxes ~milp_options ~window net bounds;
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
        milp_range ~milp_options enc.Encode.model
          (Encode.btne_out_delta enc j))
  in
  { delta_out; runtime = Unix.gettimeofday () -. t0 }

let btne_lpr net ~input ~delta =
  let t0 = Unix.gettimeofday () in
  let bounds = global_bounds net ~input ~delta in
  let view = full_view net in
  let enc = Encode.btne ~link_input_dist:true ~mode:Encode.Relaxed ~bounds
      view in
  let engine =
    Plan.Engine.of_session (Plan.Engine.zero_stats ()) ~name:"btne-lpr"
      ~model:enc.Encode.model
      (Lp.Simplex.create_session (Lp.Simplex.compile enc.Encode.model))
  in
  let out_dim = Nn.Network.output_dim net in
  let n = Nn.Network.n_layers net in
  let delta_out =
    Array.init out_dim (fun j ->
        lp_range engine
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
  let bounds = global_bounds net ~input ~delta in
  let view = full_view net in
  let enc =
    Encode.itne ~mode:Encode.Relaxed ~include_output_relu:true ~bounds view
  in
  let engine =
    Plan.Engine.of_session (Plan.Engine.zero_stats ()) ~name:"itne-lpr"
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
        lp_range engine [ (var, 1.0) ] bounds.Bounds.dx.(last).(j))
  in
  { delta_out; runtime = Unix.gettimeofday () -. t0 }
