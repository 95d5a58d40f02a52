module Model = Lp.Model
module Sparse_row = Linalg.Sparse_row
module Query = Plan.Query

type config = {
  window : int;
  refine : Refine.rule;
  mode : Encode.mode;
  dedup : bool;
}

(* Compose the affine rows of a window with no interior ReLUs into a
   single row over the window inputs; exact interval evaluation then
   beats any LP. [with_bias = false] composes the distance map. *)
let compose_affine (view : Subnet.view) j ~with_bias =
  let net = view.Subnet.net in
  let strip row =
    if with_bias then row else { row with Sparse_row.const = 0.0 }
  in
  let rec back k row =
    (* [row] ranges over outputs of layer [first + k]; substitute until
       it ranges over the window inputs *)
    if k < 0 then row
    else begin
      let layer = Nn.Network.layer net (view.Subnet.first + k) in
      let subst =
        List.fold_left
          (fun acc (id, coeff) ->
            Sparse_row.add acc
              (Sparse_row.scale coeff (strip (Nn.Layer.linear_row layer id))))
          (Sparse_row.make [] row.Sparse_row.const)
          row.Sparse_row.coeffs
      in
      back (k - 1) subst
    end
  in
  let depth = Subnet.depth view in
  let last_layer = Nn.Network.layer net view.Subnet.last in
  let row = strip (Nn.Layer.linear_row last_layer j) in
  back (depth - 2) row

let window_has_interior_relu (view : Subnet.view) =
  let depth = Subnet.depth view in
  let rec go k =
    if k >= depth - 1 then false
    else
      (Nn.Network.layer view.Subnet.net (view.Subnet.first + k)).Nn.Layer.relu
      || go (k + 1)
  in
  go 0

let interior_relu_neurons (view : Subnet.view) =
  let depth = Subnet.depth view in
  let acc = ref [] in
  for k = 0 to depth - 2 do
    let abs = view.Subnet.first + k in
    if (Nn.Network.layer view.Subnet.net abs).Nn.Layer.relu then
      Array.iter (fun j -> acc := (abs, j) :: !acc) view.Subnet.active.(k)
  done;
  List.rev !acc

(* dense layers share one cone (and one encoded model) for the whole
   layer; conv/pool layers get per-neuron cones to stay small *)
let groups net ~layer:i =
  let layer = Nn.Network.layer net i in
  let m = Nn.Layer.out_dim layer in
  let all_targets = Array.init m Fun.id in
  match layer.Nn.Layer.kind with
  | Nn.Layer.Dense _ | Nn.Layer.Normalize _ -> [ all_targets ]
  | Nn.Layer.Conv2d _ | Nn.Layer.Avg_pool _ ->
      Array.to_list (Array.map (fun j -> [| j |]) all_targets)

(* --- cone signatures --- *)

(* Canonical serialisation of everything that determines the encoded
   model of a cone, EXCEPT the window input intervals (those enter the
   model only as the first variables' bounds, which a replay overrides
   per instance).  Neuron ids are remapped to their index in the sorted
   active/input arrays, so two translated conv windows — same kernel
   rows, same interior intervals, different absolute positions —
   serialise identically.  Floats are compared by bit pattern: equal
   signatures imply [Encode.itne] builds bit-identical models (variable
   creation order is canonical) up to input bounds. *)
let signature ~mode ~include_output_relu ~refined (bounds : Bounds.t)
    (view : Subnet.view) =
  let buf = Buffer.create 1024 in
  let add_int n =
    Buffer.add_string buf (string_of_int n);
    Buffer.add_char buf ';'
  in
  let add_float f =
    Buffer.add_string buf (Printf.sprintf "%Lx;" (Int64.bits_of_float f))
  in
  let add_iv (iv : Interval.t) =
    add_float iv.Interval.lo;
    add_float iv.Interval.hi
  in
  let refined_set = Hashtbl.create 16 in
  List.iter (fun key -> Hashtbl.replace refined_set key ()) refined;
  add_int (match mode with Encode.Exact -> 1 | Encode.Relaxed -> 0);
  add_int (if include_output_relu then 1 else 0);
  let depth = Subnet.depth view in
  add_int depth;
  add_int (Array.length view.Subnet.input_active);
  (* canonical position of each previous-level neuron id *)
  let pos = Hashtbl.create 64 in
  Array.iteri (fun p id -> Hashtbl.replace pos id p) view.Subnet.input_active;
  for k = 0 to depth - 1 do
    let abs = view.Subnet.first + k in
    let layer = Nn.Network.layer view.Subnet.net abs in
    add_int (Array.length view.Subnet.active.(k));
    add_int (if layer.Nn.Layer.relu then 1 else 0);
    let is_last = k = depth - 1 in
    let encode_relu =
      layer.Nn.Layer.relu && ((not is_last) || include_output_relu)
    in
    Array.iter
      (fun j ->
        let row = Nn.Layer.linear_row layer j in
        add_float row.Sparse_row.const;
        List.iter
          (fun (id, c) ->
            add_int (Hashtbl.find pos id);
            add_float c)
          row.Sparse_row.coeffs;
        add_int (-1);
        add_int (if Hashtbl.mem refined_set (abs, j) then 1 else 0);
        add_iv bounds.Bounds.y.(abs).(j);
        add_iv bounds.Bounds.dy.(abs).(j);
        if encode_relu then begin
          (* x/dx variable bounds are meets of the stored intervals with
             transfers of y/dy, so the stored bits pin them exactly *)
          add_iv bounds.Bounds.x.(abs).(j);
          add_iv bounds.Bounds.dx.(abs).(j)
        end)
      view.Subnet.active.(k);
    Hashtbl.reset pos;
    Array.iteri (fun p id -> Hashtbl.replace pos id p) view.Subnet.active.(k)
  done;
  Buffer.contents buf

let plan_range (iv : Interval.t) =
  { Plan.lo = iv.Interval.lo; hi = iv.Interval.hi }

(* A cached representative cone: the registered task plus its encoding
   (for the input-variable handles and target-variable lookups). *)
type rep = { r_task : int; r_enc : Encode.itne_enc }

(* Audit-mode cross-check of a dedup hit: re-encode the instance from
   scratch and require bit-exact structural equality with the
   representative's model, input-variable bounds excepted. *)
let audit_replay ~mode ~include_output_relu ~refined ~label bounds view rep =
  let fresh = Encode.itne ~refined ~include_output_relu ~mode ~bounds view in
  let except =
    List.concat_map
      (fun (v, d, w) -> [ v; d; w ])
      (Array.to_list rep.r_enc.Encode.in_vars)
  in
  if
    not
      (Model.same_structure ~except rep.r_enc.Encode.model
         fresh.Encode.model)
  then
    Audit_core.Mode.report
      [ Audit_core.Diag.make Audit_core.Diag.Error ~pass:"plan"
          ~code:"dedup-structure-mismatch"
          ~loc:(Audit_core.Diag.loc label)
          "deduplicated cone does not re-encode to the representative's \
           model structure" ]

(* Encode a cone — or replay a cached structurally identical one — and
   emit one unit of work per target.  [queries_per_target] builds each
   target's query batch against the representative encoding. *)
let m_cones = Obs.Metrics.counter "planner.cones"
let m_refined = Obs.Metrics.counter "planner.refined_neurons"

let emit_cone builder cache ~dedup ~mode ~label
    ~include_output_relu ~refined bounds (view : Subnet.view)
    ~(queries_per_target :
        Encode.itne_enc -> Plan.query_spec array array) =
  Obs.Metrics.add m_cones 1;
  Obs.Metrics.add m_refined (List.length refined);
  Obs.Trace.count "cones" 1;
  if refined <> [] then Obs.Trace.count "refined" (List.length refined);
  let sign =
    if dedup then signature ~mode ~include_output_relu ~refined bounds view
    else ""
  in
  match if dedup then Hashtbl.find_opt cache sign else None with
  | Some rep ->
      if Audit_core.Mode.enabled () then
        audit_replay ~mode ~include_output_relu ~refined ~label bounds view
          rep;
      (* the replay re-imposes this instance's own stored input
         intervals on the representative's input variables *)
      let first = view.Subnet.first in
      let overrides =
        List.concat
          (Array.to_list
             (Array.mapi
                (fun p (v, d, w) ->
                  let id = view.Subnet.input_active.(p) in
                  let value = plan_range (Bounds.val_in bounds first id)
                  and dist = plan_range (Bounds.dist_in bounds first id) in
                  [ (v, value); (d, dist); (w, value) ])
                rep.r_enc.Encode.in_vars))
      in
      Array.iter
        (fun queries ->
          Plan.add_unit builder ~task_id:rep.r_task ~overrides queries)
        (queries_per_target rep.r_enc)
  | None ->
      let enc = Encode.itne ~refined ~include_output_relu ~mode ~bounds view in
      let task_id =
        Plan.add_task builder ~label ~signature:sign enc.Encode.model
      in
      if dedup then Hashtbl.replace cache sign { r_task = task_id; r_enc = enc };
      Array.iter
        (fun queries -> Plan.add_unit builder ~task_id ~overrides:[] queries)
        (queries_per_target enc)

(* Representative neuron for the instance target at position [t] of the
   window's last layer (identical cones agree on active-set sizes). *)
let rep_target (enc : Encode.itne_enc) ~t =
  let view = enc.Encode.view in
  let last = Array.length view.Subnet.active - 1 in
  view.Subnet.active.(last).(t)

let plan_values config (bounds : Bounds.t) net ~layer:i =
  let builder = Plan.builder () in
  let w = min (i + 1) config.window in
  let cache = Hashtbl.create 16 in
  List.iter
    (fun targets ->
      let view = Subnet.cone net ~last:i ~targets ~window:w in
      if not (window_has_interior_relu view) then
        (* the whole window is affine: composed rows evaluated over the
           input boxes are exact, no LP needed *)
        Array.iter
          (fun j ->
            let vrow = compose_affine view j ~with_bias:true in
            let drow = compose_affine view j ~with_bias:false in
            let terms lookup row =
              List.map
                (fun (id, c) ->
                  (c, plan_range (lookup bounds view.Subnet.first id)))
                row.Sparse_row.coeffs
            in
            Plan.add_affine builder
              { Plan.a_layer = i; a_neuron = j; a_quantity = Query.Y;
                a_const = vrow.Sparse_row.const;
                a_terms = terms Bounds.val_in vrow };
            Plan.add_affine builder
              { Plan.a_layer = i; a_neuron = j; a_quantity = Query.Dy;
                a_const = drow.Sparse_row.const;
                a_terms = terms Bounds.dist_in drow })
          targets
      else begin
        let candidates = interior_relu_neurons view in
        let r = Refine.budget config.refine candidates in
        let refined = Refine.select bounds ~candidates ~r in
        emit_cone builder cache ~dedup:config.dedup ~mode:config.mode
          ~label:(Printf.sprintf "itne-y:layer%d" i)
          ~include_output_relu:false ~refined bounds view
          ~queries_per_target:(fun enc ->
            Array.mapi
              (fun t inst_j ->
                let nv = Encode.itne_vars enc i (rep_target enc ~t) in
                let mk quantity dir var =
                  { Plan.q = Query.make ~layer:i ~neuron:inst_j quantity dir;
                    terms = [ (var, 1.0) ] }
                in
                [| mk Query.Y Query.Hi nv.Encode.y;
                   mk Query.Y Query.Lo nv.Encode.y;
                   mk Query.Dy Query.Hi nv.Encode.dy;
                   mk Query.Dy Query.Lo nv.Encode.dy |])
              targets)
      end)
    (groups net ~layer:i);
  Plan.finish builder

let plan_dx config (bounds : Bounds.t) net ~layer:i =
  let builder = Plan.builder () in
  let layer = Nn.Network.layer net i in
  let m = Nn.Layer.out_dim layer in
  let w = min (i + 1) config.window in
  let cache = Hashtbl.create 16 in
  (* when the distance relation is informative, solve the LpRelaxX
     problem with the target's own relation exact: correlations between
     y_j and dy_j through the window can beat the box transfer *)
  for j = 0 to m - 1 do
    if
      Refine.chord_score ~y:bounds.Bounds.y.(i).(j)
        ~dy:bounds.Bounds.dy.(i).(j)
      > 0.0
    then begin
      let view = Subnet.cone net ~last:i ~targets:[| j |] ~window:w in
      let candidates = interior_relu_neurons view in
      let r = Refine.budget config.refine candidates in
      let refined = (i, j) :: Refine.select bounds ~candidates ~r in
      emit_cone builder cache ~dedup:config.dedup ~mode:config.mode
        ~label:(Printf.sprintf "itne-x:layer%d:neuron%d" i j)
        ~include_output_relu:true ~refined bounds view
        ~queries_per_target:(fun enc ->
          let nv = Encode.itne_vars enc i (rep_target enc ~t:0) in
          match nv.Encode.dx with
          | None -> [| [||] |]
          | Some dxv ->
              let mk dir =
                { Plan.q = Query.make ~layer:i ~neuron:j Query.Dx dir;
                  terms = [ (dxv, 1.0) ] }
              in
              [| [| mk Query.Hi; mk Query.Lo |] |])
    end
  done;
  Plan.finish builder
