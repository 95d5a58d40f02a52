module Model = Lp.Model

type result = {
  eps : float array;
  per_output : Interval.t array;
  exact : bool;
  nodes : int;
  pivots : int;
  skipped_splits : int;
  completed : bool array;
  runtime : float;
}

let split_tol = 1e-6

(* Phase fixing through bounds only (see Encode.relu_split): the child
   node's delta lists all three variables absolutely, so the shared
   {!Search.Cursor} can move the session between any two nodes of the
   split tree without intermediate restores. *)
let phase_delta (sp : Encode.relu_split) = function
  | Encode.Ph_active ->
      [ (sp.Encode.sp_slack, 0.0, 0.0);
        (sp.Encode.sp_y,
         Float.max 0.0 sp.Encode.sp_y_iv.Interval.lo,
         sp.Encode.sp_y_iv.Interval.hi);
        (sp.Encode.sp_x, sp.Encode.sp_x_iv.Interval.lo,
         sp.Encode.sp_x_iv.Interval.hi) ]
  | Encode.Ph_inactive ->
      [ (sp.Encode.sp_slack, 0.0, sp.Encode.sp_slack_hi);
        (sp.Encode.sp_y, sp.Encode.sp_y_iv.Interval.lo,
         Float.min 0.0 sp.Encode.sp_y_iv.Interval.hi);
        (sp.Encode.sp_x, 0.0, 0.0) ]

let apply_phase session (sp : Encode.relu_split) phase =
  List.iter
    (fun (v, lo, hi) -> Lp.Simplex.set_var_bounds session v ~lo ~hi)
    (phase_delta sp phase)

(* What a tree edge did: fixed a ReLU copy's phase.  Phase edges feed
   the per-node [dynamic] table (keys that must not be branched on
   again below this node). *)
type edge = Root | Phase of bool * (int * int)

(* Maximise [terms] over the exact twin-network semantics by lazy ReLU
   splitting, driven by the shared {!Search} core on an explicit DFS
   stack (deep split trees must not consume OCaml stack).  The encoding
   is fixed (built once by the caller with [split_relus]); each node
   only moves variable bounds, so every LP after the first warm-starts
   from [session]'s retained basis — a dual-simplex restart instead of
   a cold two-phase solve per node.  [eval_true xa xb] evaluates the
   objective on a real forward pass, providing feasible incumbents for
   pruning.  [fixed] holds the split keys that must never be branched
   on — statically proven phases, their bounds already applied to
   [session] and hence part of the cursor's root snapshot.  Returns
   (exact_max_or_upper_bound, completed). *)
let maximise net bounds (enc : Encode.btne_enc) session stats ~fixed
    ~strategy ~columns ~max_nodes ~search_stats ~terms ~eval_true =
  let input_dim = Nn.Network.input_dim net in
  let best = ref neg_infinity in
  let mk_input assoc (sol : Lp.Simplex.solution) =
    let x =
      Array.init input_dim (fun k -> Interval.mid bounds.Bounds.input.(k))
    in
    List.iter (fun (id, v) -> x.(id) <- sol.Lp.Simplex.x.(v)) assoc;
    x
  in
  (* the cursor's root bounds are the session's current bounds — i.e.
     with the caller's static phase fixes already in place *)
  let root_lo, root_hi = Lp.Simplex.session_bounds session in
  let set v ~lo ~hi = Lp.Simplex.set_var_bounds session v ~lo ~hi in
  let root = Search.Node.root Root in
  let cursor = Search.Cursor.create ~set ~root_lo ~root_hi root in
  let frontier = Search.Frontier.dfs () in
  Search.Frontier.push frontier root;
  (* split keys fixed on the path to the current node (as opposed to
     [fixed], the static ones); rebuilt from the node's edge tags at
     each visit — O(depth), same as the cursor move *)
  let dynamic = Hashtbl.create 16 in
  let sync_dynamic node =
    Hashtbl.reset dynamic;
    Search.Node.fold_tags node ~init:() ~f:(fun () edge ->
        match edge with
        | Phase (in_a, key) -> Hashtbl.replace dynamic (in_a, key) ()
        | Root -> ())
  in
  let visit node =
    Search.Cursor.goto cursor node;
    sync_dynamic node;
    (* counted, audited solve returning the full solution: the
       optimiser's point drives incumbents and split selection *)
    let sol =
      Plan.Engine.session_solution stats ~name:"reluplex-node"
        ~model:enc.Encode.model session
        ~objective:(Model.Maximize, terms)
    in
    match sol.Lp.Simplex.status with
    | Lp.Simplex.Infeasible -> Search.Expand []
    | Lp.Simplex.Unbounded | Lp.Simplex.Iteration_limit -> Search.Halt
    | Lp.Simplex.Optimal ->
        if sol.Lp.Simplex.obj <= !best +. split_tol then Search.Expand []
        else begin
          (* feasible incumbent: the relaxation optimiser's input pair
             satisfies the input-distance constraints, so the true
             forward evaluation is achievable *)
          let xa = mk_input enc.Encode.input_a sol in
          let xb = mk_input enc.Encode.input_b sol in
          let incumbent = eval_true xa xb in
          if incumbent > !best then begin
            best := incumbent;
            Search.note_incumbent search_stats
          end;
          if sol.Lp.Simplex.obj <= !best +. split_tol then Search.Expand []
          else begin
            (* violation-driven split over the not-yet-fixed ReLUs;
               under [Dual_guided] each candidate's violation is
               weighted by its slack column's |dual| sensitivity *)
            let weight sp =
              match strategy with
              | Search.Strategy.Dual_guided ->
                  1.0
                  +. Search.Strategy.Columns.sensitivity (Lazy.force columns)
                       ~duals:sol.Lp.Simplex.duals sp.Encode.sp_slack
              | Search.Strategy.Most_fractional -> 1.0
            in
            let worst = ref None and worst_score = ref 0.0 in
            let scan in_a table =
              Hashtbl.iter
                (fun key (sp : Encode.relu_split) ->
                  if
                    (not (Hashtbl.mem fixed (in_a, key)))
                    && not (Hashtbl.mem dynamic (in_a, key))
                  then begin
                    let yv = sol.Lp.Simplex.x.(sp.Encode.sp_y) in
                    let xval = sol.Lp.Simplex.x.(sp.Encode.sp_x) in
                    let v = Float.abs (xval -. Float.max 0.0 yv) in
                    if v > split_tol then begin
                      let s = v *. weight sp in
                      if s > !worst_score then begin
                        worst_score := s;
                        worst := Some (in_a, key, sp)
                      end
                    end
                  end)
                table
            in
            scan true enc.Encode.split_a;
            scan false enc.Encode.split_b;
            match !worst with
            | None ->
                (* the relaxation optimiser satisfies every ReLU: the
                   node is solved to optimality *)
                if sol.Lp.Simplex.obj > !best then begin
                  best := sol.Lp.Simplex.obj;
                  Search.note_incumbent search_stats
                end;
                Search.Expand []
            | Some (in_a, key, sp) ->
                let key_lp = -.sol.Lp.Simplex.obj in
                (* LIFO stack: push the active phase first so the
                   inactive child is explored first, matching the
                   historical recursion order *)
                Search.Expand
                  [ Search.Node.child node ~tag:(Phase (in_a, key))
                      ~delta:(phase_delta sp Encode.Ph_active)
                      ~key:key_lp;
                    Search.Node.child node ~tag:(Phase (in_a, key))
                      ~delta:(phase_delta sp Encode.Ph_inactive)
                      ~key:key_lp ]
          end
        end
  in
  let nodes0 = search_stats.Search.nodes in
  let stop =
    Search.run ~span:"reluplex.node"
      ~prune:(fun k -> k >= -.(!best +. split_tol))
      ~limits:
        { Search.max_nodes = nodes0 + max_nodes; deadline = infinity }
      ~stats:search_stats ~frontier ~visit ()
  in
  (* leave the session at the root bounds for the next call: its static
     phase fixes are part of the root snapshot, so this restores
     exactly the caller's pre-search state *)
  Search.Cursor.goto cursor root;
  let completed =
    match stop with
    | Search.Exhausted | Search.Pruned_out -> true
    | Search.Node_limit | Search.Deadline | Search.Halted -> false
  in
  (!best, completed)

let global ?(max_nodes = 200_000) ?(presolve = true) ?stable
    ?(branch = Search.Strategy.Most_fractional) net ~input ~delta =
  let t0 = Unix.gettimeofday () in
  let bounds =
    if presolve then begin
      (* tightened per-neuron ranges sharpen the triangle relaxations,
         shrinking the split tree (see Exact.prepare) *)
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
  (* one splittable encoding, compiled once; one solver session serves
     every node of every output's split tree *)
  let enc =
    Encode.btne ~split_relus:true ~link_input_dist:true ~mode:Encode.Relaxed
      ~bounds view
  in
  let session =
    Lp.Simplex.create_session (Lp.Simplex.compile enc.Encode.model)
  in
  (* which split keys are statically phase-fixed, per copy; applied once
     here and fixed for every node of every output's split tree *)
  let fixed = Hashtbl.create 16 in
  let skipped = ref 0 in
  (match stable with
   | None -> ()
   | Some table ->
       Hashtbl.iter
         (fun key phase ->
           List.iter
             (fun (in_a, splits) ->
               match Hashtbl.find_opt splits key with
               | None -> ()
               | Some sp ->
                   apply_phase session sp phase;
                   Hashtbl.replace fixed (in_a, key) ();
                   incr skipped)
             [ (true, enc.Encode.split_a); (false, enc.Encode.split_b) ])
         table);
  let stats = Plan.Engine.zero_stats () in
  let search_stats = Search.zero_stats () in
  (* |dual|-weighted column sensitivities of the slack variables, for
     the guided strategy; built lazily so the default rule never pays
     for it *)
  let columns =
    lazy
      (let slacks table =
         Hashtbl.fold
           (fun _ (sp : Encode.relu_split) acc ->
             sp.Encode.sp_slack :: acc)
           table []
       in
       let vars = slacks enc.Encode.split_a @ slacks enc.Encode.split_b in
       Search.Strategy.Columns.make enc.Encode.model
         ~vars:(Array.of_list vars))
  in
  (* each of the 2 x out_dim maximisations gets its own slice of the
     node budget, so an expensive early output cannot silently starve
     the later ones *)
  let slice = max 1 (max_nodes / (2 * out_dim)) in
  let all_exact = ref true in
  let completed = Array.make out_dim true in
  let per_output =
    Array.init out_dim (fun j ->
        let terms sign =
          List.map (fun (v, c) -> (v, sign *. c)) (Encode.btne_out_delta enc j)
        in
        let eval_true sign xa xb =
          let fa = Nn.Network.forward net xa
          and fb = Nn.Network.forward net xb in
          sign *. (fb.(j) -. fa.(j))
        in
        let hi, ok1 =
          maximise net bounds enc session stats ~fixed ~strategy:branch
            ~columns ~max_nodes:slice ~search_stats ~terms:(terms 1.0)
            ~eval_true:(eval_true 1.0)
        in
        let neg_lo, ok2 =
          maximise net bounds enc session stats ~fixed ~strategy:branch
            ~columns ~max_nodes:slice ~search_stats ~terms:(terms (-1.0))
            ~eval_true:(eval_true (-1.0))
        in
        completed.(j) <- ok1 && ok2;
        let lo = -.neg_lo in
        if Float.is_finite lo && Float.is_finite hi && lo <= hi then begin
          if not completed.(j) then all_exact := false;
          Interval.make lo hi
        end
        else begin
          completed.(j) <- false;
          all_exact := false;
          Interval.top
        end)
  in
  { eps = Array.map Interval.abs_max per_output;
    per_output;
    exact = !all_exact;
    nodes = search_stats.Search.nodes;
    pivots = stats.Plan.Engine.lp_pivots;
    skipped_splits = !skipped;
    completed;
    runtime = Unix.gettimeofday () -. t0 }
