module Model = Lp.Model

type result = {
  eps : float array;
  per_output : Interval.t array;
  exact : bool;
  nodes : int;
  skipped_splits : int;
  runtime : float;
}

(* Tight per-neuron bounds shrink the big-M constants and the search
   tree dramatically; a relaxed Algorithm-1 pass is cheap compared to
   the exact search it accelerates (Gurobi gets the same effect from
   its presolve). *)
let prepare ?(presolve = true) net ~input ~delta =
  let bounds =
    if presolve then begin
      let config =
        { Certifier.default_config with Certifier.margin = 0.0 }
      in
      (Certifier.certify ~config net ~input ~delta).Certifier.bounds
    end
    else begin
      let bounds =
        Bounds.create net ~input ~input_dist:(Bounds.uniform_delta net delta)
      in
      Interval_prop.propagate net bounds;
      bounds
    end
  in
  let n = Nn.Network.n_layers net in
  let out_dim = Nn.Network.output_dim net in
  let targets = Array.init out_dim Fun.id in
  let view = Subnet.cone net ~last:(n - 1) ~targets ~window:n in
  (bounds, view, out_dim)

let phase_value = function
  | Encode.Ph_active -> 1.0
  | Encode.Ph_inactive -> 0.0

let run_queries ?bounds ~out_dim ~milp_options ~model ~terms_of () =
  let nodes = ref 0 and exact = ref true in
  let per_output =
    Array.init out_dim (fun j ->
        let solve dir =
          let r = Milp.solve ~options:milp_options ~objective:(dir, terms_of j)
              ?bounds model in
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

let global_btne ?(milp_options = Milp.default_options) ?presolve ?stable
    ?branch net ~input ~delta =
  let milp_options =
    match branch with
    | None -> milp_options
    | Some b -> { milp_options with Milp.branch = b }
  in
  let t0 = Unix.gettimeofday () in
  let bounds, view, out_dim = prepare ?presolve net ~input ~delta in
  (* A phase table removes the straddling status at encoding time: the
     fixed ReLU is emitted as two linear rows instead of a big-M binary
     (once per explicit copy).  The proof covers both copies — each
     twin input lies in the input domain. *)
  let skipped = ref 0 in
  (match stable with
   | None -> ()
   | Some table ->
       Hashtbl.iter
         (fun (i, j) _ ->
           let iv = bounds.Bounds.y.(i).(j) in
           if iv.Interval.lo < 0.0 && iv.Interval.hi > 0.0 then
             skipped := !skipped + 2)
         table);
  let enc =
    Encode.btne ?phases_a:stable ?phases_b:stable ~link_input_dist:true
      ~mode:Encode.Exact ~bounds view
  in
  let per_output, nodes, exact =
    run_queries ~out_dim ~milp_options ~model:enc.Encode.model
      ~terms_of:(Encode.btne_out_delta enc) ()
  in
  { eps = Array.map Interval.abs_max per_output; per_output; exact; nodes;
    skipped_splits = !skipped; runtime = Unix.gettimeofday () -. t0 }

let global_itne ?(milp_options = Milp.default_options) ?presolve ?stable
    ?branch net ~input ~delta =
  let milp_options =
    match branch with
    | None -> milp_options
    | Some b -> { milp_options with Milp.branch = b }
  in
  let t0 = Unix.gettimeofday () in
  let bounds, view, out_dim = prepare ?presolve net ~input ~delta in
  let enc = Encode.itne ~mode:Encode.Exact ~include_output_relu:true ~bounds
      view in
  let last = Nn.Network.n_layers net - 1 in
  let terms_of j =
    let nv = Encode.itne_vars enc last j in
    match nv.Encode.dx with
    | Some dxv -> [ (dxv, 1.0) ]
    | None -> [ (nv.Encode.dy, 1.0) ]
  in
  (* Pin the indicator binaries of statically stable ReLUs: the phase
     holds for both twin copies over the whole input box, so fixing
     [z]/[zhat] leaves the optimum unchanged while branch & bound never
     branches on them. *)
  let fixed =
    match stable with
    | None -> []
    | Some table ->
        Hashtbl.fold
          (fun key phase acc ->
            match Hashtbl.find_opt enc.Encode.vars key with
            | None -> acc
            | Some nv ->
                let v = phase_value phase in
                let acc =
                  match nv.Encode.z with
                  | Some z -> (z, v) :: acc
                  | None -> acc
                in
                (match nv.Encode.zhat with
                 | Some zh -> (zh, v) :: acc
                 | None -> acc))
          table []
  in
  let mbounds =
    if fixed = [] then None
    else Some (Milp.fixing_bounds enc.Encode.model fixed)
  in
  let per_output, nodes, exact =
    run_queries ?bounds:mbounds ~out_dim ~milp_options
      ~model:enc.Encode.model ~terms_of ()
  in
  { eps = Array.map Interval.abs_max per_output; per_output; exact; nodes;
    skipped_splits = List.length fixed;
    runtime = Unix.gettimeofday () -. t0 }
