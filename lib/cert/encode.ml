module Model = Lp.Model
module Sparse_row = Linalg.Sparse_row

type mode = Exact | Relaxed

type neuron_vars = {
  y : Model.var;
  dy : Model.var;
  x : Model.var option;
  dx : Model.var option;
}

type itne_enc = {
  model : Model.t;
  view : Subnet.view;
  vars : (int * int, neuron_vars) Hashtbl.t;
  in_vars : (Model.var * Model.var * Model.var) array;
}

let require_finite what (iv : Interval.t) =
  if not (Interval.is_finite iv) then
    invalid_arg
      (Printf.sprintf
         "Encode: %s interval %s is unbounded; propagate bounds first" what
         (Interval.to_string iv))

let var_of_interval ?name ?(integer = false) model (iv : Interval.t) =
  Model.add_var ?name ~integer ~lo:iv.Interval.lo ~hi:iv.Interval.hi model

(* y = row . prev  (the row's constant moves to the rhs) *)
let add_affine_constraint model y_var row prev_var =
  let terms =
    (y_var, 1.0)
    :: List.map (fun (k, c) -> (prev_var k, -.c)) row.Sparse_row.coeffs
  in
  Model.add_constr model terms Model.Eq row.Sparse_row.const

(* Copy-1 ReLU relation between [y] and [x], with y in [iv]. *)
let add_relu_relation model ~mode ~(iv : Interval.t) ~y ~x =
  let a = iv.Interval.lo and b = iv.Interval.hi in
  if b <= 0.0 then Model.add_constr model [ (x, 1.0) ] Model.Eq 0.0
  else if a >= 0.0 then
    Model.add_constr model [ (x, 1.0); (y, -1.0) ] Model.Eq 0.0
  else begin
    require_finite "ReLU pre-activation" iv;
    Model.add_constr model [ (x, 1.0); (y, -1.0) ] Model.Ge 0.0;
    Model.add_constr model [ (x, 1.0) ] Model.Ge 0.0;
    match mode with
    | Exact ->
        let z = Model.add_var ~integer:true ~lo:0.0 ~hi:1.0 model in
        (* x <= y - a (1 - z)  and  x <= b z *)
        Model.add_constr model [ (x, 1.0); (y, -1.0); (z, -.a) ] Model.Le
          (-.a);
        Model.add_constr model [ (x, 1.0); (z, -.b) ] Model.Le 0.0
    | Relaxed ->
        (* x <= b (y - a) / (b - a) *)
        Model.add_constr model
          [ (x, b -. a); (y, -.b) ]
          Model.Le (-.b *. a)
  end

(* Distance relation dx = relu(y + dy) - relu(y), Eq. 5/6 of the paper. *)
let add_dist_relation model ~mode ~(y_iv : Interval.t)
    ~(dy_iv : Interval.t) ~y ~dy ~x ~dx =
  let a = y_iv.Interval.lo and b = y_iv.Interval.hi in
  let c = dy_iv.Interval.lo and d = dy_iv.Interval.hi in
  if b <= 0.0 && b +. d <= 0.0 then
    (* both copies certainly inactive *)
    Model.add_constr model [ (dx, 1.0) ] Model.Eq 0.0
  else if a >= 0.0 && a +. c >= 0.0 then
    (* both copies certainly active *)
    Model.add_constr model [ (dx, 1.0); (dy, -1.0) ] Model.Eq 0.0
  else
    match mode with
    | Exact ->
        require_finite "ReLU pre-activation" y_iv;
        require_finite "ReLU distance" dy_iv;
        let yhat_iv =
          Interval.make (a +. c) (b +. d)
        in
        let yhat = var_of_interval model yhat_iv in
        Model.add_constr model [ (yhat, 1.0); (y, -1.0); (dy, -1.0) ]
          Model.Eq 0.0;
        let xhat = var_of_interval model (Interval.relu yhat_iv) in
        add_relu_relation model ~mode:Exact ~iv:yhat_iv ~y:yhat ~x:xhat;
        Model.add_constr model [ (dx, 1.0); (xhat, -1.0); (x, 1.0) ]
          Model.Eq 0.0
    | Relaxed ->
        require_finite "ReLU distance" dy_iv;
        let l = Float.min 0.0 c and u = Float.max 0.0 d in
        if u -. l < 1e-12 then
          Model.add_constr model [ (dx, 1.0) ] Model.Eq 0.0
        else begin
          (* l (u - dy) / (u - l) <= dx <= u (dy - l) / (u - l) *)
          Model.add_constr model [ (dx, u -. l); (dy, l) ] Model.Ge (l *. u);
          Model.add_constr model [ (dx, u -. l); (dy, -.u) ] Model.Le
            (-.u *. l)
        end

let interval_clip_relu_dist ~y_iv ~dy_iv stored =
  (* best cheap enclosure for the dx variable's own bounds *)
  match Interval.meet stored (Interval.relu_dist ~y:y_iv ~dy:dy_iv) with
  | Some iv -> iv
  | None -> stored

let itne ?(refined = []) ?(include_output_relu = false) ~mode
    ~(bounds : Bounds.t) (view : Subnet.view) =
  let model = Model.create () in
  let refined_set = Hashtbl.create 16 in
  List.iter (fun key -> Hashtbl.replace refined_set key ()) refined;
  let vars = Hashtbl.create 64 in
  (* window input variables, (value, distance) pairs in input_active
     order — the first variables of the model, a creation-order
     invariant the cone-deduplication replay relies on *)
  let in_val = Hashtbl.create 16 and in_dist = Hashtbl.create 16 in
  let first = view.Subnet.first in
  let in_vars =
    Array.map
      (fun id ->
        let iv = Bounds.val_in bounds first id in
        let v = var_of_interval model iv in
        let d = var_of_interval model (Bounds.dist_in bounds first id) in
        (* The implicit second copy's window input, [w = v + d], ranges
           over the same value interval as the first copy's: both twin
           inputs lie in the input domain (and, at an interior window
           boundary, the activation bounds hold for either copy by
           symmetry of the specification).  Without this variable the
           perturbed input could leave the domain by up to the distance
           radius, and the encoding would over-approximate even with
           every ReLU exact.  The instance data lives in [w]'s bounds,
           not a constraint rhs, so deduplicated replay can override it
           like [v] and [d]. *)
        let w = var_of_interval model iv in
        Model.add_constr model [ (w, 1.0); (v, -1.0); (d, -1.0) ] Model.Eq
          0.0;
        Hashtbl.replace in_val id v;
        Hashtbl.replace in_dist id d;
        (v, d, w))
      view.Subnet.input_active
  in
  let depth = Subnet.depth view in
  for k = 0 to depth - 1 do
    let abs = view.Subnet.first + k in
    let layer = Nn.Network.layer view.Subnet.net abs in
    let prev_val id =
      if k = 0 then Hashtbl.find in_val id
      else
        let nv = Hashtbl.find vars (abs - 1, id) in
        (match nv.x with Some xv -> xv | None -> nv.y)
    in
    let prev_dist id =
      if k = 0 then Hashtbl.find in_dist id
      else
        let nv = Hashtbl.find vars (abs - 1, id) in
        (match nv.dx with Some dxv -> dxv | None -> nv.dy)
    in
    let is_last = k = depth - 1 in
    Array.iter
      (fun j ->
        let row = Nn.Layer.linear_row layer j in
        let y_iv = bounds.Bounds.y.(abs).(j) in
        let dy_iv = bounds.Bounds.dy.(abs).(j) in
        let y = var_of_interval model y_iv in
        let dy = var_of_interval model dy_iv in
        add_affine_constraint model y row prev_val;
        add_affine_constraint model dy
          { row with Sparse_row.const = 0.0 }
          prev_dist;
        let encode_relu =
          layer.Nn.Layer.relu && ((not is_last) || include_output_relu)
        in
        let x, dx =
          if encode_relu then begin
            let x_iv =
              match
                Interval.meet bounds.Bounds.x.(abs).(j) (Interval.relu y_iv)
              with
              | Some iv -> iv
              | None -> bounds.Bounds.x.(abs).(j)
            in
            let dx_iv =
              interval_clip_relu_dist ~y_iv ~dy_iv bounds.Bounds.dx.(abs).(j)
            in
            let x = var_of_interval model x_iv in
            let dx = var_of_interval model dx_iv in
            let neuron_mode =
              if Hashtbl.mem refined_set (abs, j) then Exact else mode
            in
            add_relu_relation model ~mode:neuron_mode ~iv:y_iv ~y ~x;
            add_dist_relation model ~mode:neuron_mode ~y_iv ~dy_iv ~y ~dy ~x
              ~dx;
            (Some x, Some dx)
          end
          else (None, None)
        in
        Hashtbl.replace vars (abs, j) { y; dy; x; dx })
      view.Subnet.active.(k)
  done;
  { model; view; vars; in_vars }

let itne_vars enc abs j = Hashtbl.find enc.vars (abs, j)

(* --- explicit one-copy encodings --- *)

type copy_vars = { cy : Model.var; cx : Model.var option }

type phase = Ph_active | Ph_inactive

type relu_split = {
  sp_y : Model.var;
  sp_x : Model.var;
  sp_slack : Model.var;
  sp_y_iv : Interval.t;
  sp_x_iv : Interval.t;
  sp_slack_hi : float;
}

type btne_enc = {
  model : Model.t;
  view : Subnet.view;
  copy_a : (int * int, copy_vars) Hashtbl.t;
  copy_b : (int * int, copy_vars) Hashtbl.t;
  split_a : (int * int, relu_split) Hashtbl.t;
  split_b : (int * int, relu_split) Hashtbl.t;
  input_a : (int * Model.var) list;
  input_b : (int * Model.var) list;
}

(* Encode one explicit copy of the view into [model]; [input_var id]
   supplies the window input variables.

   [splits]: encode each ambiguous relaxed ReLU in the splittable form
   [x - y - s = 0, s in [0, -a]] (plus the usual chord cut), recording
   the variables in the table.  The slack bound is implied by the chord
   ([x - y <= -a] at any feasible point), so the relaxation is
   unchanged — but fixing a phase becomes a pure bound change
   ([s = 0] for active, [x = 0, y <= 0] for inactive), which lets a
   case-splitting solver reuse one compiled matrix (and one warm solver
   session) for the entire split tree instead of re-encoding per node. *)
let encode_copy ?splits model view ~(bounds : Bounds.t) ~mode
    ~input_var ~table =
  let depth = Subnet.depth view in
  for k = 0 to depth - 1 do
    let abs = view.Subnet.first + k in
    let layer = Nn.Network.layer view.Subnet.net abs in
    let prev_val id =
      if k = 0 then input_var id
      else
        let cv : copy_vars = Hashtbl.find table (abs - 1, id) in
        (match cv.cx with Some xv -> xv | None -> cv.cy)
    in
    Array.iter
      (fun j ->
        let row = Nn.Layer.linear_row layer j in
        let y_iv = bounds.Bounds.y.(abs).(j) in
        let y = var_of_interval model y_iv in
        add_affine_constraint model y row prev_val;
        let x =
          if layer.Nn.Layer.relu then begin
            let x_iv =
              match
                Interval.meet bounds.Bounds.x.(abs).(j) (Interval.relu y_iv)
              with
              | Some iv -> iv
              | None -> bounds.Bounds.x.(abs).(j)
            in
            let x = var_of_interval model x_iv in
            let a = y_iv.Interval.lo and b = y_iv.Interval.hi in
            (match splits with
             | Some split_table when mode = Relaxed && a < 0.0 && b > 0.0 ->
                 require_finite "ReLU pre-activation" y_iv;
                 let s = Model.add_var ~lo:0.0 ~hi:(-.a) model in
                 Model.add_constr model
                   [ (x, 1.0); (y, -1.0); (s, -1.0) ]
                   Model.Eq 0.0;
                 Model.add_constr model [ (x, 1.0) ] Model.Ge 0.0;
                 Model.add_constr model
                   [ (x, b -. a); (y, -.b) ]
                   Model.Le (-.b *. a);
                 Hashtbl.replace split_table (abs, j)
                   { sp_y = y; sp_x = x; sp_slack = s; sp_y_iv = y_iv;
                     sp_x_iv = x_iv; sp_slack_hi = -.a }
             | _ -> add_relu_relation model ~mode ~iv:y_iv ~y ~x);
            Some x
          end
          else None
        in
        Hashtbl.replace table (abs, j) { cy = y; cx = x })
      view.Subnet.active.(k)
  done

let btne ?(split_relus = false) ~link_input_dist ~mode
    ~(bounds : Bounds.t) (view : Subnet.view) =
  let model = Model.create () in
  let copy_a = Hashtbl.create 64 and copy_b = Hashtbl.create 64 in
  let split_a = Hashtbl.create 16 and split_b = Hashtbl.create 16 in
  let splits t = if split_relus then Some t else None in
  let in_a = Hashtbl.create 16 and in_b = Hashtbl.create 16 in
  let first = view.Subnet.first in
  Array.iter
    (fun id ->
      let iv = Bounds.val_in bounds first id in
      let va = var_of_interval model iv in
      let vb = var_of_interval model iv in
      Hashtbl.replace in_a id va;
      Hashtbl.replace in_b id vb;
      if link_input_dist then begin
        let d = var_of_interval model (Bounds.dist_in bounds first id) in
        Model.add_constr model [ (vb, 1.0); (va, -1.0); (d, -1.0) ] Model.Eq
          0.0
      end)
    view.Subnet.input_active;
  encode_copy ?splits:(splits split_a) model view ~bounds
    ~mode ~input_var:(Hashtbl.find in_a) ~table:copy_a;
  encode_copy ?splits:(splits split_b) model view ~bounds
    ~mode ~input_var:(Hashtbl.find in_b) ~table:copy_b;
  let assoc table =
    Hashtbl.fold (fun id v acc -> (id, v) :: acc) table []
  in
  { model; view; copy_a; copy_b; split_a; split_b;
    input_a = assoc in_a; input_b = assoc in_b }

let btne_out_delta enc j =
  let abs = enc.view.Subnet.last in
  let pick table =
    let cv : copy_vars = Hashtbl.find table (abs, j) in
    match cv.cx with Some x -> x | None -> cv.cy
  in
  [ (pick enc.copy_b, 1.0); (pick enc.copy_a, -1.0) ]

type single_enc = {
  model : Model.t;
  view : Subnet.view;
  svars : (int * int, copy_vars) Hashtbl.t;
}

let single ~mode ~(bounds : Bounds.t) (view : Subnet.view) =
  let model = Model.create () in
  let svars = Hashtbl.create 64 in
  let in_val = Hashtbl.create 16 in
  Array.iter
    (fun id ->
      Hashtbl.replace in_val id
        (var_of_interval model (Bounds.val_in bounds view.Subnet.first id)))
    view.Subnet.input_active;
  encode_copy model view ~bounds ~mode ~input_var:(Hashtbl.find in_val)
    ~table:svars;
  { model; view; svars }

let single_vars enc abs j = Hashtbl.find enc.svars (abs, j)
