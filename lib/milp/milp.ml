type status = Optimal | Infeasible | Unbounded | Limit | Lp_failure

type result = {
  status : status;
  obj : float;
  bound : float;
  x : float array;
  nodes : int;
}

type options = {
  max_nodes : int;
  time_limit : float;
}

let default_options = { max_nodes = 200_000; time_limit = infinity }

let m_solves = Obs.Metrics.counter "milp.solves"
let m_nodes = Obs.Metrics.counter "milp.nodes"
let m_incumbents = Obs.Metrics.counter "milp.incumbents"

(* LP solves by purpose: branch & bound nodes, rounding dives, canonical
   values of new assignments, plateau-polish neighbours, and the
   assignments of an enumerated integer box *)
let m_node = Obs.Metrics.counter "milp.solves.node"
let m_rounding = Obs.Metrics.counter "milp.solves.rounding"
let m_canonical = Obs.Metrics.counter "milp.solves.canonical"
let m_polish = Obs.Metrics.counter "milp.solves.polish"
let m_enumerate = Obs.Metrics.counter "milp.solves.enumerate"

(* Exploration slack: a node is pruned only when its relaxation bound
   exceeds the incumbent by more than this.  Warm node bounds agree
   with exact values only up to solver noise, so pruning exactly at the
   incumbent would let that noise decide — differently per warm-start
   history — whether a last-bits-better assignment is ever considered;
   with a slack far above the noise floor, every assignment within it
   is considered whatever the node order and the reported optimum is a
   function of the problem alone.  There is no optimality gap on top
   of it: any positive gap would make the final incumbent depend on
   which near-tied assignment the exploration order reached first. *)
let tie_slack = 1e-9

(* a value within this of an integer counts as integral *)
let integrality_tol = 1e-6

let enumerate_max = 4.0

(* Audit-mode incumbent check: the claimed MILP solution must satisfy
   the original model's rows and bounds, be integral on the marked
   variables, and reproduce the reported objective — verified
   independently of the branch & bound bookkeeping. *)
let audit_incumbent ?objective model (r : result) =
  match r.status with
  | Optimal | Limit when Float.is_finite r.obj ->
      let diags =
        Audit_core.Certificate.check_point ~name:"milp-incumbent" ?objective
          ~model ~obj:r.obj r.x
      in
      let int_diags =
        List.filter_map
          (fun j ->
            let v = r.x.(j) in
            if Float.abs (v -. Float.round v) > 1e-5 then
              Some
                (Audit_core.Diag.make Audit_core.Diag.Error
                   ~pass:"certificate" ~code:"fractional-incumbent"
                   ~loc:
                     (Audit_core.Diag.loc
                        ~var:(Lp.Model.var_name model j)
                        "milp-incumbent")
                   (Printf.sprintf "integer-marked variable has value %g" v))
            else None)
          (Lp.Model.integer_vars model)
      in
      Audit_core.Mode.report (diags @ int_diags)
  | _ -> ()

let solve_inner ?(options = default_options) ?objective ?bounds model =
  let cp = Lp.Simplex.compile model in
  let n = Lp.Simplex.n_struct cp in
  (* one persistent solver session: each node's LP warm-starts from the
     previously factorised basis (dual restart after the bound change)
     instead of a cold two-phase solve *)
  let session = Lp.Simplex.create_session cp in
  let dir =
    match objective with
    | Some (d, _) -> d
    | None -> let d, _, _ = Lp.Model.objective model in d
  in
  let maximize = dir = Lp.Model.Maximize in
  (* internal key: minimisation; user values converted on output *)
  let to_key obj = if maximize then -.obj else obj in
  let of_key key = if maximize then -.key else key in
  let ints = Array.of_list (Lp.Model.integer_vars model) in
  let root_lo, root_hi = Lp.Simplex.default_bounds cp in
  (match bounds with
   | None -> ()
   | Some (lo, hi) ->
       if Array.length lo <> n || Array.length hi <> n then
         invalid_arg "Milp.solve: bounds arrays must have length n_vars";
       Array.blit lo 0 root_lo 0 n;
       Array.blit hi 0 root_hi 0 n);
  (* round integer bounds inward *)
  Array.iter
    (fun j ->
      root_lo.(j) <- Float.ceil (root_lo.(j) -. integrality_tol);
      root_hi.(j) <- Float.floor (root_hi.(j) +. integrality_tol))
    ints;
  Lp.Simplex.set_bounds session ~lo:root_lo ~hi:root_hi;
  (* the search core moves the session between nodes by bound deltas;
     [cur_lo]/[cur_hi] mirror the session's current node bounds so the
     branching logic can read effective bounds in O(1) *)
  let cur_lo = Array.copy root_lo and cur_hi = Array.copy root_hi in
  let set j ~lo ~hi =
    cur_lo.(j) <- lo;
    cur_hi.(j) <- hi;
    Lp.Simplex.set_var_bounds session j ~lo ~hi
  in
  let root = Search.Node.root () in
  let cursor = Search.Cursor.create ~set ~root_lo ~root_hi root in
  let frontier = Search.Frontier.best_first () in
  Search.Frontier.push frontier root;
  let sstats = Search.zero_stats () in
  let best_key = ref infinity in
  let best_x = ref (Array.make n nan) in
  let have_incumbent = ref false in
  let lp_failed = ref false in
  let unbounded = ref false in
  let t0 = Unix.gettimeofday () in
  (* |dual|-weighted column sensitivities of the integers, for the
     branching score; built lazily so an LP or an enumerated box never
     pays for it *)
  let columns = lazy (Search.Columns.make model ~vars:ints) in
  let accept_incumbent key x =
    best_key := key;
    best_x := Array.copy x;
    have_incumbent := true;
    Search.note_incumbent sstats;
    Obs.Metrics.add m_incumbents 1
  in
  (* Canonical values.  A warm incumbent value depends on the node
     order (each warm restart agrees with another only up to solver
     tolerances), so without canonicalisation the same query could
     certify last-bit-different bounds in a warm daemon worker, a
     one-shot run or a [--domains] chunk.  Every assignment is
     therefore valued in a dedicated session restored to the root
     node's optimal basis — the session's first solve whatever came
     before — with the assignment pinned and a dual restart: the value
     is a function of the model, the root bounds and the assignment
     alone, and exact ties between distinct assignments report the same
     objective whichever is kept.  Until the root has solved, the
     snapshot is empty and restores to a cold solve. *)
  let root_basis = ref (Lp.Simplex.snapshot session) in
  let canon = lazy (Lp.Simplex.create_session ~lo:root_lo ~hi:root_hi cp) in
  let pinned_solve counter (x : float array) =
    let sn = Lazy.force canon in
    let lo = Array.copy root_lo and hi = Array.copy root_hi in
    Array.iter
      (fun j ->
        let v = Float.round x.(j) in
        lo.(j) <- v;
        hi.(j) <- v)
      ints;
    Lp.Simplex.restore sn !root_basis;
    Lp.Simplex.set_bounds sn ~lo ~hi;
    Obs.Metrics.add counter 1;
    Lp.Simplex.solve_session ?objective sn
  in
  let consider_assignment_uncached counter ~warm_key (x : float array) =
    let sol = pinned_solve counter x in
    match sol.Lp.Simplex.status with
    | Lp.Simplex.Optimal ->
        let key = to_key sol.Lp.Simplex.obj in
        if key < !best_key then accept_incumbent key sol.Lp.Simplex.x;
        Some key
    | Lp.Simplex.Infeasible | Lp.Simplex.Unbounded
    | Lp.Simplex.Iteration_limit ->
        (* the assignment was feasible at its node, so a failed pinned
           solve is a solver artefact: keep the warm value rather than
           dropping a real incumbent *)
        if warm_key < !best_key then accept_incumbent warm_key x;
        None
  in
  let assign_key (x : float array) =
    let b = Buffer.create (8 * Array.length ints) in
    Array.iter
      (fun j -> Buffer.add_int64_ne b (Int64.of_float (Float.round x.(j))))
      ints;
    Buffer.contents b
  in
  (* Each distinct assignment is valued at most once: the tree can
     surface the same assignment at many nodes (rounding hits, integral
     relaxations along a path), and the canonical value is a function of
     the assignment alone.  The memo stores that canonical key ([None]
     when the pinned solve failed). *)
  let considered : (string, float option) Hashtbl.t = Hashtbl.create 64 in
  let consider_assignment ?(counter = m_canonical) ~warm_key x =
    let key_str = assign_key x in
    match Hashtbl.find_opt considered key_str with
    | Some cached -> cached
    | None ->
        let res = consider_assignment_uncached counter ~warm_key x in
        Hashtbl.replace considered key_str res;
        res
  in
  (* Rounding heuristic: fix every integer to the nearest integer seen
     in an LP solution and re-solve the continuous rest.  Success gives
     a feasible incumbent, enabling best-bound pruning long before the
     search reaches integral leaves.  Skipped when it cannot produce a
     new incumbent: a model without integer marks, or a node where
     every integer is already fixed (the node LP is the rounded LP). *)
  let try_rounding (x : float array) =
    if
      Array.length ints > 0
      && Array.exists (fun j -> cur_lo.(j) < cur_hi.(j)) ints
      && not (Array.exists (fun j -> Float.is_nan x.(j)) ints)
    then begin
      Array.iter
        (fun j ->
          let v = Float.round x.(j) in
          let v = Float.max cur_lo.(j) (Float.min cur_hi.(j) v) in
          Lp.Simplex.set_var_bounds session j ~lo:v ~hi:v)
        ints;
      Obs.Metrics.add m_rounding 1;
      let sol = Lp.Simplex.solve_session ?objective session in
      (* restore the node's own bounds before any further solve *)
      Array.iter
        (fun j ->
          Lp.Simplex.set_var_bounds session j ~lo:cur_lo.(j) ~hi:cur_hi.(j))
        ints;
      match sol.Lp.Simplex.status with
      | Lp.Simplex.Optimal ->
          (* the warm value only filters; acceptance re-derives the
             value canonically (slack covers warm/canonical disagreement
             at the last bits) *)
          let key = to_key sol.Lp.Simplex.obj in
          if key < !best_key +. tie_slack then
            ignore
              (consider_assignment ~warm_key:key sol.Lp.Simplex.x
               : float option)
      | Lp.Simplex.Infeasible | Lp.Simplex.Unbounded
      | Lp.Simplex.Iteration_limit -> ()
    end
  in
  let heuristic_period = 20 in
  (* Discrete branching candidate: the fractional integer with the
     largest distance from integrality times its |dual| column
     sensitivity, so the split goes where the relaxation binds the
     node's optimum.  A zero-information dual vector (every score 0)
     falls back to the most fractional integer. *)
  let pick_int_var (sol : Lp.Simplex.solution) =
    let cols = Lazy.force columns in
    let duals = sol.Lp.Simplex.duals in
    let best_j = ref (-1) and best_frac = ref 0.0 in
    let guided_j = ref (-1) and guided_score = ref 0.0 in
    Array.iter
      (fun j ->
        let v = sol.Lp.Simplex.x.(j) in
        let f = Float.abs (v -. Float.round v) in
        if f > integrality_tol then begin
          if f > !best_frac then begin
            best_j := j;
            best_frac := f
          end;
          let s = f *. Search.Columns.sensitivity cols ~duals j in
          if s > !guided_score then begin
            guided_j := j;
            guided_score := s
          end
        end)
      ints;
    if !guided_j >= 0 then !guided_j else !best_j
  in
  (* Small integer boxes skip branch & bound: with at most
     [enumerate_max] assignments — the certifier's exact output relation
     is a 2-binary MILP — every one is valued from the root basis and
     the best is the optimum.  A failed pinned solve leaves the root
     relaxation as the proven bound. *)
  let enumerable =
    Array.length ints > 0
    && Array.fold_left
         (fun acc j -> acc *. Float.max 0.0 (root_hi.(j) -. root_lo.(j) +. 1.0))
         1.0 ints
       <= enumerate_max
  in
  let failed_bound = ref infinity in
  let enumerate root_key =
    let x = Array.make n 0.0 in
    let rec go k =
      if k = Array.length ints then begin
        let sol = pinned_solve m_enumerate x in
        match sol.Lp.Simplex.status with
        | Lp.Simplex.Optimal ->
            let key = to_key sol.Lp.Simplex.obj in
            if key < !best_key then accept_incumbent key sol.Lp.Simplex.x
        | Lp.Simplex.Infeasible -> ()
        | Lp.Simplex.Unbounded | Lp.Simplex.Iteration_limit ->
            lp_failed := true;
            failed_bound := root_key
      end
      else begin
        let j = ints.(k) in
        x.(j) <- root_lo.(j);
        while x.(j) <= root_hi.(j) do
          go (k + 1);
          x.(j) <- x.(j) +. 1.0
        done
      end
    in
    go 0
  in
  let visit node =
    Search.Cursor.goto cursor node;
    Obs.Metrics.add m_node 1;
    let sol = Lp.Simplex.solve_session ?objective session in
    match sol.Lp.Simplex.status with
    | Lp.Simplex.Infeasible -> Search.Expand []
    | Lp.Simplex.Unbounded ->
        unbounded := true;
        Search.Halt
    | Lp.Simplex.Iteration_limit ->
        lp_failed := true;
        Search.Halt
    | Lp.Simplex.Optimal when node == root && enumerable ->
        root_basis := Lp.Simplex.snapshot session;
        enumerate (to_key sol.Lp.Simplex.obj);
        Search.Expand []
    | Lp.Simplex.Optimal ->
        if node == root then root_basis := Lp.Simplex.snapshot session;
        if sstats.Search.nodes mod heuristic_period = 1 then
          try_rounding sol.Lp.Simplex.x;
        let key = to_key sol.Lp.Simplex.obj in
        if key >= !best_key +. tie_slack then
          Search.Expand []
        else begin
          let j = pick_int_var sol in
          if j < 0 then begin
            (* integral: candidate incumbent.  Pure LPs skip the
               canonical value — there is no assignment to pin, the
               root solve is the answer. *)
            if Array.length ints = 0 then accept_incumbent key sol.Lp.Simplex.x
            else
              ignore
                (consider_assignment ~warm_key:key sol.Lp.Simplex.x
                 : float option);
            Search.Expand []
          end
          else begin
            let v = sol.Lp.Simplex.x.(j) in
            let lo = cur_lo.(j) and hi = cur_hi.(j) in
            let down_hi = Float.floor v and up_lo = Float.ceil v in
            let children = ref [] in
            if up_lo <= hi then
              children :=
                Search.Node.child node ~tag:() ~delta:[ (j, up_lo, hi) ] ~key
                :: !children;
            if lo <= down_hi then
              children :=
                Search.Node.child node ~tag:() ~delta:[ (j, lo, down_hi) ]
                  ~key
                :: !children;
            Search.Expand !children
          end
        end
  in
  let deadline =
    if options.time_limit = infinity then infinity else t0 +. options.time_limit
  in
  (* the tightest proven bound must also account for pruned-but-
     unexplored nodes; the frontier min key covers those (a stop on
     budget leaves them in place) *)
  let stop =
    Search.run ~span:"milp.node"
      ~prune:(fun key -> key >= !best_key +. tie_slack)
      ~halt_on_prune:true
      ~limits:{ Search.max_nodes = options.max_nodes; deadline }
      ~stats:sstats ~frontier ~visit ()
  in
  ignore (stop : Search.stop);
  (* Plateau polish: breadth-first sweep over the connected component
     of near-tied assignments reachable from the incumbent by single
     integer +-1 flips.  The search's enumeration is complete only up
     to solver noise — a box whose warm relaxation stops a
     few last bits short of its true optimum closes while still hiding
     a near-tied assignment, and *which* assignment is hidden depends
     on the warm-start history.  Strict hill-climbing is not enough: the
     near-ties can form a value-flat plateau whose strict maximum sits
     several flips away, so equal-value (within [tie_slack]) moves are
     taken too, with a dedup'd frontier to terminate.  Any search
     reaching any point of the plateau then explores all of it and
     reports the same objective.  Neighbours are valued like any
     assignment, from the root basis.  An enumerated box has no
     unvisited neighbour.  Capped: on models with very many integers
     (which in this codebase also run under hard node budgets, so the
     result is a [Limit] bound anyway) the sweep would cost more solves
     than the search itself, and it stops at the [time_limit] deadline
     like the search. *)
  let polish_max_ints = 64 in
  let polish_max_visits = 2048 in
  if
    !have_incumbent
    && (not enumerable)
    && Array.length ints > 0
    && Array.length ints <= polish_max_ints
  then begin
    let queue = Queue.create () in
    let enqueued : (string, unit) Hashtbl.t = Hashtbl.create 64 in
    let push x =
      let k = assign_key x in
      if not (Hashtbl.mem enqueued k) then begin
        Hashtbl.replace enqueued k ();
        Queue.push x queue
      end
    in
    push (Array.copy !best_x);
    let visits = ref 0 in
    while
      (not (Queue.is_empty queue))
      && !visits < polish_max_visits
      && (deadline = infinity || Unix.gettimeofday () < deadline)
    do
      let x = Queue.pop queue in
      incr visits;
      Array.iter
        (fun j ->
          let cur = Float.round x.(j) in
          List.iter
            (fun v ->
              if v >= root_lo.(j) && v <= root_hi.(j) then begin
                let x' = Array.copy x in
                x'.(j) <- v;
                match
                  consider_assignment ~counter:m_polish ~warm_key:infinity x'
                with
                | Some key when key < !best_key +. tie_slack -> push x'
                | Some _ | None -> ()
              end)
            [ cur -. 1.0; cur +. 1.0 ])
        ints
    done
  end;
  let nodes = sstats.Search.nodes in
  let heap_key = Search.Frontier.min_key frontier in
  let exhausted =
    Search.Frontier.is_empty frontier
    || heap_key >= !best_key +. tie_slack
  in
  let proven_key = Float.min (Float.min !best_key heap_key) !failed_bound in
  let incumbent_obj = if !have_incumbent then of_key !best_key else nan in
  let result =
    if !unbounded then
      { status = Unbounded; obj = nan; bound = of_key neg_infinity;
        x = Array.make n nan; nodes }
    else if !lp_failed then
      { status = Lp_failure; obj = incumbent_obj; bound = of_key proven_key;
        x = !best_x; nodes }
    else if exhausted then begin
      if !have_incumbent then
        { status = Optimal; obj = of_key !best_key; bound = of_key !best_key;
          x = !best_x; nodes }
      else
        { status = Infeasible; obj = nan; bound = nan;
          x = Array.make n nan; nodes }
    end
    else
      { status = Limit; obj = incumbent_obj; bound = of_key proven_key;
        x = !best_x; nodes }
  in
  if Audit_core.Mode.enabled () then audit_incumbent ?objective model result;
  result

let solve ?options ?objective ?bounds model =
  Obs.Trace.with_span "milp.solve" (fun () ->
      let r = solve_inner ?options ?objective ?bounds model in
      Obs.Metrics.add m_solves 1;
      Obs.Metrics.add m_nodes r.nodes;
      Obs.Trace.count "nodes" r.nodes;
      r)
