module Sparse_row = Linalg.Sparse_row

type affine = { coeffs : float array; const : float }

let eval_range a box =
  let lo = ref a.const and hi = ref a.const in
  Array.iteri
    (fun k c ->
      if c > 0.0 then begin
        lo := !lo +. (c *. box.(k).Interval.lo);
        hi := !hi +. (c *. box.(k).Interval.hi)
      end
      else if c < 0.0 then begin
        lo := !lo +. (c *. box.(k).Interval.hi);
        hi := !hi +. (c *. box.(k).Interval.lo)
      end)
    a.coeffs;
  Interval.make !lo !hi

(* A symbolic interval disjoint from the stored one means one of the
   two is unsound (the true range lies in both); keeping the store is
   the conservative recovery, but under audit mode the disagreement is
   a hard, structured failure instead of a silent one. *)
let meet_store ?(what = "value") ?neuron store fresh =
  match Interval.meet store fresh with
  | Some iv -> iv
  | None ->
      if Audit_core.Mode.enabled () then
        Audit_core.Mode.report
          [ Audit_core.Diag.make Audit_core.Diag.Error ~pass:"symbolic"
              ~code:"empty-meet"
              ~loc:(Audit_core.Diag.loc ?neuron "symbolic")
              (Printf.sprintf
                 "symbolic %s interval %s is disjoint from the stored \
                  interval %s: one of the two analyses is unsound" what
                 (Interval.to_string fresh)
                 (Interval.to_string store)) ];
      store

let m_back_subs = Obs.Metrics.counter "symbolic.back_subs"

(* Width of the input frontier of layer [k] (the quantity a backward
   form ranges over after substituting through layer [k]). *)
let in_width net k =
  if k = 0 then Nn.Network.input_dim net
  else Nn.Layer.out_dim (Nn.Network.layer net (k - 1))

let dense_of_row width (row : Sparse_row.t) ~with_bias =
  let c = Array.make width 0.0 in
  List.iter (fun (m, v) -> c.(m) <- c.(m) +. v) row.Sparse_row.coeffs;
  { coeffs = c; const = (if with_bias then row.Sparse_row.const else 0.0) }

(* One scalar substitution [coeff * x -> affine over y] under the
   triangle relaxation of [x = relu(y)], picking the relaxation side
   from the coefficient sign and the direction of the form being built
   ([upper = true]: the form is an upper bound).  Writes the resulting
   [y] coefficient into [out] and returns the constant contribution.
   A straddling ReLU with an unbounded range cannot be relaxed
   affinely; its upper side degrades to the (possibly infinite)
   interval endpoint. *)
let subst_relu_value ~upper out m coeff (y_iv : Interval.t) =
  let a = y_iv.Interval.lo and b = y_iv.Interval.hi in
  if coeff = 0.0 then 0.0
  else if b <= 0.0 then 0.0 (* x = 0 *)
  else if a >= 0.0 then begin
    out.(m) <- coeff; (* x = y *)
    0.0
  end
  else if (coeff > 0.0) = upper then begin
    (* need x's upper bound: x <= b (y - a) / (b - a) *)
    if Float.is_finite a && Float.is_finite b then begin
      let s = b /. (b -. a) in
      out.(m) <- coeff *. s;
      coeff *. (-.s *. a)
    end
    else coeff *. b (* x <= max(0, b) = b here; b may be +inf *)
  end
  else begin
    (* need x's lower bound: x >= lambda y (DeepPoly area rule) *)
    let lambda = if b >= -.a then 1.0 else 0.0 in
    out.(m) <- coeff *. lambda;
    0.0
  end

(* Same for the distance relation [dx = relu(y + dy) - relu(y)] under
   the paper's chord relaxation (Eq. 6); both chord bounds are affine
   and increasing in [dy]. *)
let subst_relu_dist ~upper out m coeff (y_iv : Interval.t)
    (dy_iv : Interval.t) =
  let a = y_iv.Interval.lo and b = y_iv.Interval.hi in
  let c = dy_iv.Interval.lo and d = dy_iv.Interval.hi in
  if coeff = 0.0 then 0.0
  else if b <= 0.0 && b +. d <= 0.0 then 0.0 (* both copies inactive *)
  else if a >= 0.0 && a +. c >= 0.0 then begin
    out.(m) <- coeff; (* both copies active: dx = dy *)
    0.0
  end
  else begin
    let l = Float.min 0.0 c and u = Float.max 0.0 d in
    if u -. l < 1e-12 then 0.0 (* dx = 0 *)
    else if not (Float.is_finite l && Float.is_finite u) then
      (* unbounded chord: degrade to the universal interval bound *)
      coeff *. (if (coeff > 0.0) = upper then u else l)
    else if (coeff > 0.0) = upper then begin
      (* dx <= u (dy - l) / (u - l) *)
      let su = u /. (u -. l) in
      out.(m) <- coeff *. su;
      coeff *. (-.su *. l)
    end
    else begin
      (* dx >= l (u - dy) / (u - l) *)
      let sl = -.l /. (u -. l) in
      out.(m) <- coeff *. sl;
      coeff *. (l *. u /. (u -. l))
    end
  end

(* Substitute a form over layer [k]'s post-activations back to a form
   over layer [k]'s input frontier: ReLU relaxation (if the layer has
   one), then the layer's linear map. *)
let back_through net (bounds : Bounds.t) ~upper ~dist k form =
  let layer = Nn.Network.layer net k in
  let m_out = Array.length form.coeffs in
  (* post-activation -> pre-activation *)
  let on_y =
    if not layer.Nn.Layer.relu then form
    else begin
      let out = Array.make m_out 0.0 in
      let const = ref form.const in
      Array.iteri
        (fun m coeff ->
          let contrib =
            if dist then
              subst_relu_dist ~upper out m coeff bounds.Bounds.y.(k).(m)
                bounds.Bounds.dy.(k).(m)
            else
              subst_relu_value ~upper out m coeff bounds.Bounds.y.(k).(m)
          in
          const := !const +. contrib)
        form.coeffs;
      { coeffs = out; const = !const }
    end
  in
  (* pre-activation -> previous frontier through the linear map *)
  let width = in_width net k in
  let out = Array.make width 0.0 in
  let const = ref on_y.const in
  Array.iteri
    (fun m coeff ->
      if coeff <> 0.0 then begin
        let row = Nn.Layer.linear_row layer m in
        if not dist then const := !const +. (coeff *. row.Sparse_row.const);
        List.iter
          (fun (id, v) -> out.(id) <- out.(id) +. (coeff *. v))
          row.Sparse_row.coeffs
      end)
    on_y.coeffs;
  { coeffs = out; const = !const }

(* Fully back-substituted lower/upper forms for the pre-activation
   (or, with [dist], the twin distance) of neuron (i, j), over the
   network input (respectively input-perturbation) box. *)
let back_forms net bounds ~dist ~layer:i ~neuron:j ~subs =
  let row = Nn.Layer.linear_row (Nn.Network.layer net i) j in
  let init = dense_of_row (in_width net i) row ~with_bias:(not dist) in
  let lo = ref init
  and hi = ref { init with coeffs = Array.copy init.coeffs } in
  for k = i - 1 downto 0 do
    lo := back_through net bounds ~upper:false ~dist k !lo;
    hi := back_through net bounds ~upper:true ~dist k !hi;
    incr subs
  done;
  (!lo, !hi)

(* [None] when the forms carry no information: NaN constants from
   degenerate infinite-bound substitutions, or a numerically crossed
   pair. *)
let concretise box (lo_form, hi_form) =
  match (eval_range lo_form box, eval_range hi_form box) with
  | exception Invalid_argument _ -> None
  | lo_r, hi_r ->
      let lo = lo_r.Interval.lo and hi = hi_r.Interval.hi in
      if Float.is_nan lo || Float.is_nan hi || lo > hi then None
      else Some (Interval.make lo hi)

let analyse net (bounds : Bounds.t) =
  Obs.Trace.with_span "symbolic.back_subs" @@ fun () ->
  let n = Nn.Network.n_layers net in
  let subs = ref 0 in
  for i = 0 to n - 1 do
    let layer = Nn.Network.layer net i in
    let m = Nn.Layer.out_dim layer in
    for j = 0 to m - 1 do
      (* layer 0's forms are its own row, already over the input *)
      let y_forms =
        back_forms net bounds ~dist:false ~layer:i ~neuron:j ~subs
      in
      (match concretise bounds.Bounds.input y_forms with
       | Some iv ->
           bounds.Bounds.y.(i).(j) <-
             meet_store ~what:"y" ~neuron:(i, j) bounds.Bounds.y.(i).(j)
               iv
       | None -> ());
      let dy_forms =
        back_forms net bounds ~dist:true ~layer:i ~neuron:j ~subs
      in
      (match concretise bounds.Bounds.input_dist dy_forms with
       | Some iv ->
           bounds.Bounds.dy.(i).(j) <-
             meet_store ~what:"dy" ~neuron:(i, j)
               bounds.Bounds.dy.(i).(j) iv
       | None -> ());
      (* refresh the activation transfers from the tightened y/dy so
         deeper substitutions pick up the sharper relaxation constants *)
      let y_iv = bounds.Bounds.y.(i).(j) in
      let dy_iv = bounds.Bounds.dy.(i).(j) in
      let x_iv, dx_iv =
        if layer.Nn.Layer.relu then
          (Interval.relu y_iv, Interval.relu_dist ~y:y_iv ~dy:dy_iv)
        else (y_iv, dy_iv)
      in
      bounds.Bounds.x.(i).(j) <-
        meet_store ~what:"x" ~neuron:(i, j) bounds.Bounds.x.(i).(j) x_iv;
      bounds.Bounds.dx.(i).(j) <-
        meet_store ~what:"dx" ~neuron:(i, j) bounds.Bounds.dx.(i).(j)
          dx_iv
    done
  done;
  Obs.Metrics.add m_back_subs !subs;
  Obs.Trace.count "back_subs" !subs

let certify net ~input ~delta =
  let bounds = Interval_prop.propagate_box net ~input ~delta in
  analyse net bounds;
  Array.map Interval.abs_max (Bounds.output_dist bounds net)
