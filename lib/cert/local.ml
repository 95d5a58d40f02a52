module Model = Lp.Model

type result = { range : Interval.t array; runtime : float }

let local_input ?domain net ~x0 ~delta =
  if Array.length x0 <> Nn.Network.input_dim net then
    invalid_arg "Local: sample dimension";
  Array.mapi
    (fun k v ->
      let ball = Interval.make (v -. delta) (v +. delta) in
      match domain with
      | None -> ball
      | Some dom ->
          (match Interval.meet ball dom.(k) with
           | Some iv -> iv
           | None -> ball))
    x0

(* single-copy bounds: zero input distance *)
let local_bounds net input =
  let bounds =
    Bounds.create net ~input
      ~input_dist:(Array.make (Nn.Network.input_dim net) Interval.zero)
  in
  Interval_prop.propagate net bounds;
  bounds

let out_var enc j =
  let last = enc.Encode.view.Subnet.last in
  let cv = Encode.single_vars enc last j in
  match cv.Encode.cx with Some x -> x | None -> cv.Encode.cy

let solve_range ~milp_options model terms =
  let engine = Plan.Engine.of_milp ~options:milp_options model in
  let hi = engine Model.Maximize terms in
  let lo = engine Model.Minimize terms in
  match (lo, hi) with
  | Some lo, Some hi -> Interval.make (Float.min lo hi) (Float.max lo hi)
  | _ -> Interval.top

let lp_range (engine : Plan.Engine.t) terms fallback =
  let hi = engine Model.Maximize terms in
  let lo = engine Model.Minimize terms in
  match (lo, hi) with
  | Some lo, Some hi when lo <= hi -> Interval.make lo hi
  | _ -> fallback

let propagate_boxes ~milp_options ~window net bounds =
  let n = Nn.Network.n_layers net in
  for i = 0 to n - 1 do
    let layer = Nn.Network.layer net i in
    let m = Nn.Layer.out_dim layer in
    let w = min (i + 1) window in
    let targets = Array.init m Fun.id in
    let view = Subnet.cone net ~last:i ~targets ~window:w in
    let enc = Encode.single ~mode:Encode.Exact ~bounds view in
    for j = 0 to m - 1 do
      let cv = Encode.single_vars enc i j in
      let y_iv =
        solve_range ~milp_options enc.Encode.model [ (cv.Encode.cy, 1.0) ]
      in
      (match Interval.meet bounds.Bounds.y.(i).(j) y_iv with
       | Some iv -> bounds.Bounds.y.(i).(j) <- iv
       | None -> ());
      bounds.Bounds.x.(i).(j) <-
        (if layer.Nn.Layer.relu then Interval.relu bounds.Bounds.y.(i).(j)
         else bounds.Bounds.y.(i).(j))
    done
  done

let exact ?(milp_options = Milp.default_options) ?domain net ~x0 ~delta =
  let t0 = Unix.gettimeofday () in
  let input = local_input ?domain net ~x0 ~delta in
  let bounds = local_bounds net input in
  let enc = Encode.single ~mode:Encode.Exact ~bounds (Subnet.full net) in
  let range =
    Array.init (Nn.Network.output_dim net) (fun j ->
        solve_range ~milp_options enc.Encode.model [ (out_var enc j, 1.0) ])
  in
  { range; runtime = Unix.gettimeofday () -. t0 }

let nd ?(milp_options = Milp.default_options) ?domain ~window net ~x0 ~delta =
  let t0 = Unix.gettimeofday () in
  let input = local_input ?domain net ~x0 ~delta in
  let bounds = local_bounds net input in
  propagate_boxes ~milp_options ~window net bounds;
  let range = Array.copy bounds.Bounds.x.(Nn.Network.n_layers net - 1) in
  { range; runtime = Unix.gettimeofday () -. t0 }

let lpr ?domain net ~x0 ~delta =
  let t0 = Unix.gettimeofday () in
  let input = local_input ?domain net ~x0 ~delta in
  let bounds = local_bounds net input in
  let n = Nn.Network.n_layers net in
  let enc = Encode.single ~mode:Encode.Relaxed ~bounds (Subnet.full net) in
  (* one warm engine serves all 2·out_dim objective-only queries *)
  let engine =
    Plan.Engine.of_session ~name:"local-lpr"
      ~model:enc.Encode.model
      (Lp.Simplex.create_session (Lp.Simplex.compile enc.Encode.model))
  in
  let range =
    Array.init (Nn.Network.output_dim net) (fun j ->
        lp_range engine [ (out_var enc j, 1.0) ] bounds.Bounds.x.(n - 1).(j))
  in
  { range; runtime = Unix.gettimeofday () -. t0 }
