module Sparse_row = Linalg.Sparse_row

let tighten current fresh =
  match Interval.meet current fresh with
  | Some iv -> iv
  | None -> fresh (* numerically disjoint: trust the fresh propagation *)

let eval_row_interval row lookup =
  List.fold_left
    (fun acc (k, c) -> Interval.add acc (Interval.scale c (lookup k)))
    (Interval.point row.Sparse_row.const)
    row.Sparse_row.coeffs

let propagate net bounds =
  let n = Nn.Network.n_layers net in
  for i = 0 to n - 1 do
    let layer = Nn.Network.layer net i in
    let m = Nn.Layer.out_dim layer in
    for j = 0 to m - 1 do
      let row = Nn.Layer.linear_row layer j in
      let y = eval_row_interval row (Bounds.val_in bounds i) in
      let dy =
        eval_row_interval
          { row with Sparse_row.const = 0.0 }
          (Bounds.dist_in bounds i)
      in
      let y = tighten bounds.Bounds.y.(i).(j) y in
      let dy = tighten bounds.Bounds.dy.(i).(j) dy in
      bounds.Bounds.y.(i).(j) <- y;
      bounds.Bounds.dy.(i).(j) <- dy;
      let x, dx =
        if layer.Nn.Layer.relu then
          (Interval.relu y, Interval.relu_dist ~y ~dy)
        else (y, dy)
      in
      bounds.Bounds.x.(i).(j) <- tighten bounds.Bounds.x.(i).(j) x;
      bounds.Bounds.dx.(i).(j) <- tighten bounds.Bounds.dx.(i).(j) dx
    done
  done

let propagate_box net ~input ~delta =
  let bounds =
    Bounds.create net ~input ~input_dist:(Bounds.uniform_delta net delta)
  in
  propagate net bounds;
  bounds

let certify net ~input ~delta =
  Array.map Interval.abs_max
    (Bounds.output_dist (propagate_box net ~input ~delta) net)

(* --- reverse pass: subgradients of the bounds w.r.t. the parameters ---

   Everything above is piecewise linear in the parameters (interval
   scaling, ReLU transfers, meets and maxima), so the reverse pass
   computes a subgradient, replaying the branch decisions from the
   forward intervals.  On a fresh store every [tighten] is a meet with
   [Interval.top] and routes the whole gradient to the fresh side. *)

(* Subgradients of [Interval.relu_dist] with respect to its four
   endpoint inputs; max/min ties route to the first argument. *)
let relu_dist_bwd ~(y : Interval.t) ~(dy : Interval.t) ~g_lo ~g_hi =
  let gy_lo = ref 0.0 and gy_hi = ref 0.0
  and gdy_lo = ref 0.0 and gdy_hi = ref 0.0 in
  let u_lo = Float.min 0.0 dy.lo and u_hi = Float.max 0.0 dy.hi in
  let to_u_lo g = if dy.lo < 0.0 then gdy_lo := !gdy_lo +. g in
  let to_u_hi g = if dy.hi > 0.0 then gdy_hi := !gdy_hi +. g in
  let route cand_lo cand_hi to_c_lo to_c_hi =
    if Float.max u_lo cand_lo > Float.min u_hi cand_hi then begin
      (* empty meet: the forward pass fell back to the universal box *)
      to_u_lo g_lo;
      to_u_hi g_hi
    end
    else begin
      (if u_lo >= cand_lo then to_u_lo g_lo else to_c_lo g_lo);
      if u_hi <= cand_hi then to_u_hi g_hi else to_c_hi g_hi
    end
  in
  (if y.hi <= 0.0 then
     let cand_lo = Float.max 0.0 (y.lo +. dy.lo)
     and cand_hi = Float.max 0.0 (y.hi +. dy.hi) in
     route cand_lo cand_hi
       (fun g ->
         if y.lo +. dy.lo > 0.0 then begin
           gy_lo := !gy_lo +. g;
           gdy_lo := !gdy_lo +. g
         end)
       (fun g ->
         if y.hi +. dy.hi > 0.0 then begin
           gy_hi := !gy_hi +. g;
           gdy_hi := !gdy_hi +. g
         end)
   else if y.lo >= 0.0 then
     let cand_lo = Float.max dy.lo (-.y.hi)
     and cand_hi = Float.max dy.hi (-.y.lo) in
     route cand_lo cand_hi
       (fun g ->
         if dy.lo >= -.y.hi then gdy_lo := !gdy_lo +. g
         else gy_hi := !gy_hi -. g)
       (fun g ->
         if dy.hi >= -.y.lo then gdy_hi := !gdy_hi +. g
         else gy_lo := !gy_lo -. g)
   else begin
     to_u_lo g_lo;
     to_u_hi g_hi
   end);
  (!gy_lo, !gy_hi, !gdy_lo, !gdy_hi)

(* [dlo]/[dhi] are the loss gradients with respect to the lower/upper
   endpoints of the output distance intervals of a fresh [propagate];
   parameter subgradients are accumulated into one
   [Nn.Layer.alloc_grad_arrays] structure per layer. *)
let backprop_params net (bounds : Bounds.t) ~dlo ~dhi grads =
  let n = Nn.Network.n_layers net in
  if Array.length grads <> n then
    invalid_arg "Interval_prop.backprop_params: gradient structure mismatch";
  let out = Array.length dlo in
  (* adjoints of the post-activation value/distance interval endpoints *)
  let gx_lo = ref (Array.make out 0.0) and gx_hi = ref (Array.make out 0.0) in
  let gdx_lo = ref (Array.copy dlo) and gdx_hi = ref (Array.copy dhi) in
  for i = n - 1 downto 0 do
    let layer = Nn.Network.layer net i in
    let m = Nn.Layer.out_dim layer and in_d = Nn.Layer.in_dim layer in
    (* post-activation -> pre-activation *)
    let gy_lo = Array.make m 0.0 and gy_hi = Array.make m 0.0 in
    let gdy_lo = Array.make m 0.0 and gdy_hi = Array.make m 0.0 in
    for j = 0 to m - 1 do
      if layer.Nn.Layer.relu then begin
        let y = bounds.Bounds.y.(i).(j) and dy = bounds.Bounds.dy.(i).(j) in
        if y.Interval.lo > 0.0 then gy_lo.(j) <- !gx_lo.(j);
        if y.Interval.hi > 0.0 then gy_hi.(j) <- !gx_hi.(j);
        let yl, yh, dl, dh =
          relu_dist_bwd ~y ~dy ~g_lo:!gdx_lo.(j) ~g_hi:!gdx_hi.(j)
        in
        gy_lo.(j) <- gy_lo.(j) +. yl;
        gy_hi.(j) <- gy_hi.(j) +. yh;
        gdy_lo.(j) <- dl;
        gdy_hi.(j) <- dh
      end
      else begin
        gy_lo.(j) <- !gx_lo.(j);
        gy_hi.(j) <- !gx_hi.(j);
        gdy_lo.(j) <- !gdx_lo.(j);
        gdy_hi.(j) <- !gdx_hi.(j)
      end
    done;
    (* pre-activation -> layer inputs and parameters.  [Interval.scale]
       sign-splits each coefficient: for c >= 0 the lower output
       endpoint reads the lower input endpoint, for c < 0 they cross
       over. *)
    let gin_lo = Array.make in_d 0.0 and gin_hi = Array.make in_d 0.0 in
    let gdin_lo = Array.make in_d 0.0 and gdin_hi = Array.make in_d 0.0 in
    let dcoeff, dconst = Nn.Layer.grad_sinks layer grads.(i) in
    for j = 0 to m - 1 do
      let gl = gy_lo.(j) and gh = gy_hi.(j) in
      let dl = gdy_lo.(j) and dh = gdy_hi.(j) in
      if gl <> 0.0 || gh <> 0.0 || dl <> 0.0 || dh <> 0.0 then begin
        dconst j (gl +. gh);
        let row = Nn.Layer.linear_row layer j in
        List.iter
          (fun (k, c) ->
            let v = Bounds.val_in bounds i k
            and dv = Bounds.dist_in bounds i k in
            if c >= 0.0 then begin
              gin_lo.(k) <- gin_lo.(k) +. (c *. gl);
              gin_hi.(k) <- gin_hi.(k) +. (c *. gh);
              gdin_lo.(k) <- gdin_lo.(k) +. (c *. dl);
              gdin_hi.(k) <- gdin_hi.(k) +. (c *. dh);
              dcoeff j k
                ((gl *. v.lo) +. (gh *. v.hi) +. (dl *. dv.lo)
                 +. (dh *. dv.hi))
            end
            else begin
              gin_hi.(k) <- gin_hi.(k) +. (c *. gl);
              gin_lo.(k) <- gin_lo.(k) +. (c *. gh);
              gdin_hi.(k) <- gdin_hi.(k) +. (c *. dl);
              gdin_lo.(k) <- gdin_lo.(k) +. (c *. dh);
              dcoeff j k
                ((gl *. v.hi) +. (gh *. v.lo) +. (dl *. dv.hi)
                 +. (dh *. dv.lo))
            end)
          row.Sparse_row.coeffs
      end
    done;
    gx_lo := gin_lo;
    gx_hi := gin_hi;
    gdx_lo := gdin_lo;
    gdx_hi := gdin_hi
  done

let penalty_grad ?(scale = 1.0) net ~input ~delta grads =
  let bounds = propagate_box net ~input ~delta in
  let out = Bounds.output_dist bounds net in
  let m = Array.length out in
  let dlo = Array.make m 0.0 and dhi = Array.make m 0.0 in
  Array.iteri
    (fun j (iv : Interval.t) ->
      (* abs_max = max(|lo|, |hi|); ties route to hi like Float.max *)
      let al = Float.abs iv.lo and ah = Float.abs iv.hi in
      if al > ah then dlo.(j) <- (if iv.lo < 0.0 then -.scale else scale)
      else if ah > 0.0 then dhi.(j) <- (if iv.hi < 0.0 then -.scale else scale))
    out;
  backprop_params net bounds ~dlo ~dhi grads;
  Array.fold_left (fun acc iv -> acc +. Interval.abs_max iv) 0.0 out
