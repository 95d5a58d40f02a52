module Model = Lp.Model

(* The paper's future-work item: the per-neuron sub-problems of one
   layer are independent, so fan them out over OCaml 5 domains.  Each
   worker only reads shared state (compiled matrices, the plan itself);
   results are applied sequentially after the join.

   [init] builds one context per worker (its solver sessions): warm
   starts need per-worker mutable state.

   If a worker raises, every spawned domain is still joined before the
   first exception is re-raised with its backtrace, so no domain
   outlives the call. *)
let parallel_map n_domains ~(init : unit -> 'c) (items : 'a array)
    (f : 'c -> 'a -> 'b) : 'b array =
  let n = Array.length items in
  if n_domains <= 1 || n <= 1 then Array.map (f (init ())) items
  else begin
    let k = min n_domains n in
    let chunk d =
      let per = (n + k - 1) / k in
      (* ceil division can overshoot: with n = 5, k = 4 the last chunk
         would start at 6 > n, so clamp both ends into [0, n] (an empty
         chunk, not a negative-length List.init) *)
      let start = min n (d * per) in
      let stop = min n (start + per) in
      (start, stop)
    in
    let workers =
      List.init k (fun d ->
          Domain.spawn (fun () ->
              Obs.Trace.with_span "executor.worker" @@ fun () ->
              let ctx = init () in
              match
                let start, stop = chunk d in
                List.init (stop - start) (fun i ->
                    (start + i, f ctx items.(start + i)))
              with
              | rs -> Ok rs
              | exception e -> Error (e, Printexc.get_raw_backtrace ())))
    in
    (* join everything before deciding the outcome: re-raising at the
       first failed join would leave later domains running *)
    let joined = List.map Domain.join workers in
    match
      List.find_map (function Error e -> Some e | Ok _ -> None) joined
    with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
        let out = Array.make n None in
        List.iter
          (function
            | Ok rs -> List.iter (fun (i, r) -> out.(i) <- Some r) rs
            | Error _ -> ())
          joined;
        Array.map Option.get out
  end

type config = {
  domains : int;
  milp_options : Milp.options;
}

let m_runs = Obs.Metrics.counter "executor.runs"
let m_units = Obs.Metrics.counter "executor.units"

type request = {
  query : Query.t;
  label : string;
  dir : Model.dir;
  terms : (Model.var * float) list;
}

type solve = request -> float option

type outcome = {
  affine : (Spec.affine * Spec.range) array;
  solved : (Query.t * float option) array;
}

(* Bounds arrays for a replayed unit: the task model's own structural
   bounds with the instance's input intervals overlaid. *)
let override_bounds (model : Model.t) overrides =
  let n = Model.n_vars model in
  let lo = Array.init n (Model.var_lo model) in
  let hi = Array.init n (Model.var_hi model) in
  List.iter
    (fun (v, (r : Spec.range)) ->
      lo.(v) <- r.Spec.lo;
      hi.(v) <- r.Spec.hi)
    overrides;
  (lo, hi)

let run ?hook config (plan : Spec.t) =
  Obs.Trace.with_span "executor.run" @@ fun () ->
  Obs.Metrics.add m_runs 1;
  Obs.Metrics.add m_units (Array.length plan.Spec.units);
  Obs.Trace.count "units" (Array.length plan.Spec.units);
  let affine =
    Array.map (fun a -> (a, Spec.eval_affine a)) plan.Spec.affine
  in
  (* compile LP task matrices once, up front and sequentially: every
     unit that shares a task shares the read-only compiled form; MILP
     tasks ([None]) compile per solve inside [Milp.solve] *)
  let compiled =
    Array.map
      (fun (t : Spec.task) ->
        if t.Spec.integer then None
        else Some (Lp.Simplex.compile t.Spec.model))
      plan.Spec.tasks
  in
  let engine_for cache (u : Spec.unit_of_work) =
    let task = plan.Spec.tasks.(u.Spec.task_id) in
    if u.Spec.overrides = [] then begin
      (* the task's defining instance: one persistent engine per worker
         per task, so a per-neuron min/max sweep over a shared dense
         encoding runs as objective-only hot starts *)
      match Hashtbl.find_opt cache u.Spec.task_id with
      | Some e -> e
      | None ->
          let e =
            match compiled.(u.Spec.task_id) with
            | Some cp ->
                Engine.of_session ~name:task.Spec.label
                  ~model:task.Spec.model
                  (Lp.Simplex.create_session cp)
            | None ->
                Engine.of_milp ~options:config.milp_options task.Spec.model
          in
          Hashtbl.add cache u.Spec.task_id e;
          e
    end
    else begin
      (* a deduplicated replay: fresh engine over the shared matrix with
         the instance's input bounds, never a warm-started carry-over —
         results must be bitwise-identical to a fresh encoding *)
      let lo, hi = override_bounds task.Spec.model u.Spec.overrides in
      match compiled.(u.Spec.task_id) with
      | Some cp ->
          Engine.of_session ~name:task.Spec.label ~model:task.Spec.model
            (Lp.Simplex.create_session ~lo ~hi cp)
      | None ->
          Engine.of_milp ~options:config.milp_options ~bounds:(lo, hi)
            task.Spec.model
    end
  in
  let init () = Hashtbl.create 8 in
  let compute ctx (u : Spec.unit_of_work) =
    Obs.Trace.with_span "executor.unit" @@ fun () ->
    let engine = engine_for ctx u in
    let task = plan.Spec.tasks.(u.Spec.task_id) in
    let base (req : request) = engine req.dir req.terms in
    let solve = match hook with None -> base | Some h -> h base in
    Array.map
      (fun (qs : Spec.query_spec) ->
        let req =
          { query = qs.Spec.q; label = task.Spec.label;
            dir = Query.lp_dir qs.Spec.q.Query.dir; terms = qs.Spec.terms }
        in
        (qs.Spec.q, solve req))
      u.Spec.queries
  in
  let per_unit = parallel_map config.domains ~init plan.Spec.units compute in
  { affine; solved = Array.concat (Array.to_list per_unit) }
