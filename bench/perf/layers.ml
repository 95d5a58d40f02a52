(* Per-layer numbers, measured from outside the library: deltas of the
   Obs.Metrics counters the stack already maintains, and self time per
   span name folded from the Obs.Trace spans it already emits. *)

(* ---- counters ---- *)

type counts = (string * float) list

let snapshot () : counts = Obs.Metrics.dump ()

let delta ~(before : counts) ~(after : counts) : counts =
  List.map
    (fun (k, v) -> (k, v -. Option.value ~default:0.0 (List.assoc_opt k before)))
    after

(* ---- spans ---- *)

(* span name -> (self seconds, spans) *)
type spans = (string, float * int) Hashtbl.t

(* Self time of a span is its duration minus the time its child spans
   cover; children on one domain never overlap, so the self times of a
   tree add up to its root's duration. *)
let fold_spans roots : spans =
  let tbl = Hashtbl.create 64 in
  let rec visit (sp : Obs.Trace.span) =
    let dur = sp.Obs.Trace.sp_stop -. sp.Obs.Trace.sp_start in
    let covered =
      List.fold_left
        (fun acc (c : Obs.Trace.span) -> acc +. (c.Obs.Trace.sp_stop -. c.Obs.Trace.sp_start))
        0.0 sp.Obs.Trace.sp_children
    in
    let self, n =
      Option.value ~default:(0.0, 0) (Hashtbl.find_opt tbl sp.Obs.Trace.sp_name)
    in
    Hashtbl.replace tbl sp.Obs.Trace.sp_name
      (self +. Float.max 0.0 (dur -. covered), n + 1);
    List.iter visit sp.Obs.Trace.sp_children
  in
  List.iter visit roots;
  tbl

let spans_to_json (t : spans) =
  Serve.Json.Obj
    (Hashtbl.fold
       (fun k (s, n) acc ->
         (k, Serve.Json.List [ Serve.Json.Num s; Serve.Json.Num (float_of_int n) ])
         :: acc)
       t [])

let spans_of_json j : spans =
  let tbl = Hashtbl.create 64 in
  (match j with
   | Serve.Json.Obj kvs ->
       List.iter
         (function
           | k, Serve.Json.List [ Serve.Json.Num s; Serve.Json.Num n ] ->
               Hashtbl.replace tbl k (s, int_of_float n)
           | _ -> ())
         kvs
   | _ -> ());
  tbl

let self_of (t : spans) names =
  List.fold_left
    (fun acc n -> acc +. fst (Option.value ~default:(0.0, 0) (Hashtbl.find_opt t n)))
    0.0 names

let is_bench name = String.length name >= 6 && String.sub name 0 6 = "bench."

(* Self time of the library's own spans: every span the benchmark did
   not open itself. *)
let library_self (t : spans) =
  Hashtbl.fold (fun k (s, _) acc -> if is_bench k then acc else acc +. s) t 0.0

let print_spans ~workload ~wall (t : spans) =
  let rows = Hashtbl.fold (fun k (s, n) acc -> (k, s, n) :: acc) t [] in
  List.iter
    (fun (k, s, n) ->
      Printf.printf "%s span %-22s self %10.4f s %6.2f%% of wall %9d spans\n"
        workload k s (100.0 *. s /. wall) n)
    (List.sort (fun (_, a, _) (_, b, _) -> Float.compare b a) rows)

(* Pause and resume collecting spans and kernel times; what was
   collected is kept until [stop_tracing]. *)
let pause_tracing () =
  Obs.Trace.set_enabled false;
  Lp.Simplex.time_kernels := false

let resume_tracing () =
  Obs.Trace.set_enabled true;
  Lp.Simplex.time_kernels := true

let start_tracing () =
  Obs.Trace.reset ();
  Lp.Simplex.reset_kernel_times ();
  resume_tracing ()

let stop_tracing () =
  pause_tracing ();
  let spans = fold_spans (Obs.Trace.roots ()) in
  Obs.Trace.reset ();
  (spans, Lp.Simplex.kernel_times ())

(* ---- the per-layer metric set (BENCHMARK.json per_layer) ---- *)

type source =
  | Self of string list  (* span self time, seconds per solved cell *)
  | Kernel of [ `Ftran | `Btran ]  (* FTRAN/BTRAN seconds per solved cell *)
  | Count of string      (* counter delta over the counting unit *)
  | Ratio of string * string  (* counter a / counter b *)
  | Given                (* supplied by the workload; 0 when not exercised *)

let metrics =
  [ ("simplex.self_s", "s/cell", Self [ "simplex.solve"; "simplex.phase1"; "simplex.phase2" ]);
    ("simplex.solves", "count", Count "simplex.solves");
    ("simplex.pivots", "count", Count "simplex.pivots");
    ("simplex.warm_ratio", "ratio", Ratio ("simplex.warm_solves", "simplex.solves"));
    ("simplex.phase1_runs", "count", Count "simplex.phase1_runs");
    ("simplex.dual_restarts", "count", Count "simplex.dual_restarts");
    ("simplex.fallbacks", "count", Count "simplex.fallbacks");
    ("lu.ftrans", "count", Count "simplex.ftrans");
    ("lu.btrans", "count", Count "simplex.btrans");
    ("lu.ftran_s", "s/cell", Kernel `Ftran);
    ("lu.btran_s", "s/cell", Kernel `Btran);
    ("lu.refactors", "count", Count "lp:refactor");
    ("lu.eta_updates", "count", Count "simplex.eta_updates");
    ("lu.dense_fallbacks", "count", Count "simplex.dense_fallbacks");
    ("milp.self_s", "s/cell", Self [ "milp.solve"; "milp.node" ]);
    ("milp.nodes", "count", Count "milp.nodes");
    ("milp.incumbents", "count", Count "milp.incumbents");
    ("search.prunes", "count", Count "search.prunes");
    ("search.prune_ratio", "ratio", Ratio ("search.prunes", "search.nodes"));
    ("certify.self_s", "s/cell", Self [ "certify"; "certify.layer" ]);
    ("plan.self_s", "s/cell", Self [ "plan.values"; "plan.dx" ]);
    ("executor.self_s", "s/cell", Self [ "executor.run"; "executor.unit"; "executor.worker" ]);
    ("engine.self_s", "s/cell", Self [ "engine.query" ]);
    ("certifier.bound_queries", "count", Count "certifier.bound_queries");
    ("certifier.encoded_models", "count", Count "certifier.encoded_models");
    ("certifier.dedup_hits", "count", Count "certifier.dedup_hits");
    ("plan.dedup_ratio", "ratio", Ratio ("certifier.dedup_hits", "certifier.bound_queries"));
    ("executor.pool_compiles", "count", Count "executor.pool_compiles");
    ("executor.pool_hits", "count", Count "executor.pool_hits");
    ("engine.lp_queries", "count", Count "engine.lp_queries");
    ("engine.milp_queries", "count", Count "engine.milp_queries");
    ("symbolic.self_s", "s/cell", Self [ "symbolic.back_subs" ]);
    ("symbolic.conclusive", "count", Count "symbolic.conclusive");
    ("serve.self_s", "s/req", Given);
    ("serve.hit_handle_ms", "ms", Given);
    ("serve.miss_handle_ms", "ms", Given);
    ("serve.transport_ms", "ms", Given);
    ("serve.solve_mean_ms", "ms", Given);
    ("serve.queue_wait_ms", "ms", Given);
    ("serve.errors", "count", Given);
    ("cache.hit_ratio", "ratio", Given);
    ("requests_per_s", "1/s", Given);
    ("hit_p50_ms", "ms", Given);
    ("hit_p99_ms", "ms", Given);
    ("hit_samples", "count", Given);
    ("miss_p50_ms", "ms", Given);
    ("miss_p95_ms", "ms", Given);
    ("miss_samples", "count", Given);
    ("epoch_s", "s", Given);
    ("train.sgd_s", "s", Given);
    ("train.recert_s", "s", Given);
    ("recert.cache_hits", "count", Given);
    ("setup.train_s", "s", Given);
    ("trace.coverage", "ratio", Given);
    ("trace.cps_ratio", "ratio", Given) ]

(* [counts]: counter deltas over the workload's counting unit; [spans]
   and [kernels]: the traced loop; [solved]: cells the traced loop
   certified (not answered from a cache). *)
let compute ~counts ~spans ~kernels:(ftran, btran) ~solved ~given =
  let per_cell x = if solved > 0 then x /. float_of_int solved else 0.0 in
  let count k = Option.value ~default:0.0 (List.assoc_opt k counts) in
  List.map
    (fun (name, unit, src) ->
      let value =
        match src with
        | Self names -> per_cell (self_of spans names)
        | Kernel `Ftran -> per_cell ftran
        | Kernel `Btran -> per_cell btran
        | Count k -> count k
        | Ratio (a, b) -> if count b > 0.0 then count a /. count b else 0.0
        | Given -> Option.value ~default:0.0 (List.assoc_opt name given)
      in
      Common.m name value unit)
    metrics
