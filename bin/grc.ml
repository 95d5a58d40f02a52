(* grc: global robustness certification CLI.

   Subcommands: train, certify, attack, info, lint, fig4, case-study,
   serve, submit, shard, sweep, trace-check. *)

open Cmdliner

let setup_cache dir =
  Exp.Models.cache_dir := dir

let cache_arg =
  let doc = "Directory for trained-network artifacts." in
  Arg.(value & opt string "artifacts" & info [ "artifacts" ] ~doc)

(* --- shared model-family arguments --- *)

(* One or two comma-separated positive integers; family-specific
   interpretation happens in the command (with a proper usage error,
   not an exception). *)
type dims = One of int | Two of int * int

let dims_conv : dims Arg.conv =
  let parse s =
    let num x =
      match int_of_string_opt (String.trim x) with
      | Some v when v > 0 -> Ok v
      | Some _ -> Error (`Msg "dimensions must be positive")
      | None -> Error (`Msg (Printf.sprintf "%S is not an integer" x))
    in
    match String.split_on_char ',' s with
    | [ a ] -> Result.map (fun v -> One v) (num a)
    | [ a; b ] ->
        Result.bind (num a) (fun va ->
            Result.map (fun vb -> Two (va, vb)) (num b))
    | _ -> Error (`Msg (Printf.sprintf "%S: expected N or N,M" s))
  in
  let print ppf = function
    | One a -> Format.fprintf ppf "%d" a
    | Two (a, b) -> Format.fprintf ppf "%d,%d" a b
  in
  Arg.conv ~docv:"N[,M]" (parse, print)

(* Numeric converters with range checks: a bad [--domains 0] or
   [--delta=-1] should be a usage error at parse time, not a crash deep
   inside the executor's chunking arithmetic or the interval code. *)
let bounded_int ~what ~min : int Arg.conv =
  let parse s =
    match int_of_string_opt (String.trim s) with
    | Some v when v >= min -> Ok v
    | Some v -> Error (`Msg (Printf.sprintf "%d: %s" v what))
    | None -> Error (`Msg (Printf.sprintf "%S is not an integer" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let pos_int = bounded_int ~what:"must be at least 1" ~min:1
let nonneg_int = bounded_int ~what:"must be non-negative" ~min:0

(* Likewise for floats; none of these accepts [inf] or [nan], which the
   interval code would only reject later with an internal error. *)
let bounded_float ~what ok : float Arg.conv =
  let parse s =
    match float_of_string_opt (String.trim s) with
    | Some v when ok v -> Ok v
    | Some v -> Error (`Msg (Printf.sprintf "%g: %s" v what))
    | None -> Error (`Msg (Printf.sprintf "%S is not a number" s))
  in
  Arg.conv ~docv:"X" (parse, Format.pp_print_float)

let finite_float = bounded_float ~what:"must be finite" Float.is_finite

let nonneg_float =
  bounded_float ~what:"must be finite and non-negative" (fun v ->
      Float.is_finite v && v >= 0.0)

let pos_float =
  bounded_float ~what:"must be finite and positive" (fun v ->
      Float.is_finite v && v > 0.0)

let unit_float =
  bounded_float ~what:"must lie in [0, 1]" (fun v -> v >= 0.0 && v <= 1.0)

let family_arg =
  let doc = "Model family: auto-mpg, digits or camera." in
  Arg.(required & opt (some (enum [ ("auto-mpg", `Auto); ("digits", `Digits);
                                    ("camera", `Camera) ])) None
       & info [ "family" ] ~doc)

let id_arg =
  let doc = "Artifact id (file name under --artifacts)." in
  Arg.(required & opt (some string) None & info [ "id" ] ~doc)

let size_arg =
  let doc = "Hidden sizes h1,h2 (auto-mpg), conv layer count (digits)." in
  Arg.(value & opt dims_conv (Two (8, 8)) & info [ "size" ] ~doc)

let image_arg =
  let doc = "Image side (digits) or height,width (camera)." in
  Arg.(value & opt dims_conv (One 12) & info [ "image" ] ~doc)

(* Train or load a cached benchmark network; [Error] is a usage
   message. *)
let build_trained family ~id ~size ~image =
  match family with
  | `Auto ->
      let h1, h2 = match size with One a -> (a, a) | Two (a, b) -> (a, b) in
      Ok (Exp.Models.auto_mpg_net ~id ~sizes:(h1, h2) ())
  | `Digits -> (
      match (size, image) with
      | One conv_layers, One image ->
          Ok (Exp.Models.digits_net ~id ~conv_layers ~image ())
      | Two _, _ -> Error "for digits, --size is a single conv-layer count"
      | _, Two _ -> Error "for digits, --image is a single side length")
  | `Camera ->
      let h, w = match image with One a -> (a, 2 * a) | Two (a, b) -> (a, b) in
      Ok (Exp.Models.camera_net ~id ~h ~w ())

(* --- train --- *)

let train_cmd =
  let run cache family id size image =
    setup_cache cache;
    match build_trained family ~id ~size ~image with
    | Error msg -> `Error (true, msg)
    | Ok trained ->
        Printf.printf "%s: %s\n  hidden neurons: %d\n  test metric: %.5f\n"
          trained.Exp.Models.id
          (Nn.Network.describe trained.Exp.Models.net)
          (Nn.Network.hidden_neuron_count trained.Exp.Models.net)
          trained.Exp.Models.test_metric;
        `Ok ()
  in
  let info_ =
    Cmd.info "train" ~doc:"Train (or load from cache) a benchmark network."
  in
  Cmd.v info_
    Term.(
      ret (const run $ cache_arg $ family_arg $ id_arg $ size_arg $ image_arg))

(* --- shared certify options --- *)

let net_arg =
  let doc = "Path to a saved network (see $(b,grc train) / Nn.Io)." in
  Arg.(required & opt (some file) None & info [ "net" ] ~doc)

let delta_arg =
  let doc = "Input perturbation bound (L-inf)." in
  Arg.(value & opt nonneg_float 0.001 & info [ "delta" ] ~doc)

(* The input box [--lo, --hi]; an inverted box is a usage error. *)
let box_arg =
  let lo =
    Arg.(value & opt finite_float 0.0
         & info [ "lo" ] ~doc:"Input domain lower bound.")
  and hi =
    Arg.(value & opt finite_float 1.0
         & info [ "hi" ] ~doc:"Input domain upper bound.")
  in
  let check lo hi =
    if lo <= hi then `Ok (lo, hi)
    else `Error (true, Printf.sprintf "--lo %g exceeds --hi %g" lo hi)
  in
  Term.(ret (const check $ lo $ hi))

let branch_arg =
  let doc =
    "Branch & bound strategy: $(b,most-fractional) (historical default) or \
     $(b,dual-guided) (rank branching and refinement candidates by \
     accumulated |dual| column sensitivity).  Certified eps is identical \
     across strategies; only node counts differ."
  in
  Arg.(value
       & opt
           (enum
              (List.map
                 (fun s -> (Search.Strategy.to_string s, s))
                 Search.Strategy.all))
           Search.Strategy.Most_fractional
       & info [ "branch" ] ~docv:"STRATEGY" ~doc)

let certify_cmd =
  let window =
    Arg.(value & opt pos_int 2 & info [ "window"; "W" ] ~doc:"ND window size.")
  in
  let refine =
    Arg.(value & opt nonneg_int 0
         & info [ "refine"; "r" ] ~doc:"Neurons refined per sub-problem.")
  in
  let refine_frac =
    Arg.(value & opt (some unit_float) None
         & info [ "refine-frac" ]
             ~doc:"Fraction of relaxable neurons refined (overrides --refine).")
  in
  let domains =
    Arg.(value & opt pos_int 1
         & info [ "domains" ]
             ~doc:"Parallel OCaml domains for per-neuron sub-problems.")
  in
  let no_dedup =
    Arg.(value & flag
         & info [ "no-dedup" ]
             ~doc:"Encode every cone separately (disable the planner's \
                   structural cone deduplication).")
  in
  let meth =
    let doc =
      "Method: algo1 (ours), exact (twin MILP), reluplex (lazy splitting), \
       interval (bound propagation), symbolic (affine propagation), \
       itne-nd, itne-lpr, btne-nd, btne-lpr."
    in
    Arg.(value
         & opt (enum [ ("algo1", `Algo1); ("exact", `Exact);
                       ("reluplex", `Reluplex); ("interval", `Interval);
                       ("symbolic", `Symbolic);
                       ("itne-nd", `Itne_nd); ("itne-lpr", `Itne_lpr);
                       ("btne-nd", `Btne_nd); ("btne-lpr", `Btne_lpr) ])
             `Algo1
         & info [ "method" ] ~doc)
  in
  let trace =
    let doc =
      "Collect hierarchical execution spans.  With $(docv), write Chrome \
       trace_event JSON there (load it in chrome://tracing or \
       ui.perfetto.dev); without a value, print the span tree after the \
       result."
    in
    Arg.(value
         & opt ~vopt:(Some "") (some string) None
         & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let run net_path delta (lo, hi) window refine refine_frac domains no_dedup
      branch meth trace =
    if trace <> None then Obs.Trace.set_enabled true;
    let net = Nn.Io.load net_path in
    let input = Cert.Bounds.box_domain net ~lo ~hi in
    let t0 = Unix.gettimeofday () in
    let plan_stats = ref None in
    let eps =
      match meth with
      | `Algo1 ->
          let refine_rule =
            match refine_frac with
            | Some f -> Cert.Certifier.Fraction f
            | None ->
                if refine > 0 then Cert.Certifier.Count refine
                else Cert.Certifier.No_refine
          in
          let config =
            { Cert.Certifier.default_config with
              Cert.Certifier.window; refine = refine_rule; domains;
              dedup = not no_dedup; branch }
          in
          let r = Cert.Certifier.certify ~config net ~input ~delta in
          plan_stats := Some r;
          r.Cert.Certifier.eps
      | `Exact ->
          (Cert.Exact.global_btne ~branch net ~input ~delta).Cert.Exact.eps
      | `Reluplex ->
          (Cert.Reluplex_style.global ~branch net ~input ~delta)
            .Cert.Reluplex_style.eps
      | `Interval -> Cert.Interval_prop.certify net ~input ~delta
      | `Symbolic -> Cert.Symbolic.certify net ~input ~delta
      | `Itne_nd ->
          Array.map Cert.Interval.abs_max
            (Cert.Variants.itne_nd ~window net ~input ~delta)
              .Cert.Variants.delta_out
      | `Itne_lpr ->
          Array.map Cert.Interval.abs_max
            (Cert.Variants.itne_lpr net ~input ~delta).Cert.Variants.delta_out
      | `Btne_nd ->
          Array.map Cert.Interval.abs_max
            (Cert.Variants.btne_nd ~window net ~input ~delta)
              .Cert.Variants.delta_out
      | `Btne_lpr ->
          Array.map Cert.Interval.abs_max
            (Cert.Variants.btne_lpr net ~input ~delta).Cert.Variants.delta_out
    in
    let dt = Unix.gettimeofday () -. t0 in
    Array.iteri
      (fun j e -> Printf.printf "output %d: eps <= %.6f\n" j e)
      eps;
    (match !plan_stats with
     | Some r ->
         Printf.printf
           "plan: %d queries, %d encodes, %d dedup hits; %d LP solves \
            (%d warm), %d MILP solves\n"
           r.Cert.Certifier.bound_queries r.Cert.Certifier.encoded_models
           r.Cert.Certifier.dedup_hits r.Cert.Certifier.lp_solves
           r.Cert.Certifier.lp_warm_solves r.Cert.Certifier.milp_solves
     | None -> ());
    Printf.printf "time: %.2fs\n" dt;
    match trace with
    | None -> ()
    | Some "" -> print_string (Obs.Export.span_tree (Obs.Trace.roots ()))
    | Some file ->
        let oc = open_out file in
        output_string oc (Obs.Export.chrome_json (Obs.Trace.roots ()));
        close_out oc;
        Printf.printf "trace: %s (chrome://tracing, ui.perfetto.dev)\n" file
  in
  let info_ =
    Cmd.info "certify"
      ~doc:"Certify the global robustness of a saved network."
  in
  Cmd.v info_
    Term.(const run $ net_arg $ delta_arg $ box_arg
          $ window $ refine $ refine_frac $ domains $ no_dedup $ branch_arg
          $ meth $ trace)

let attack_cmd =
  let samples =
    Arg.(value & opt pos_int 50
         & info [ "samples" ] ~doc:"Random starting points for PGD.")
  in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"RNG seed.") in
  let run net_path delta (lo, hi) samples seed =
    let net = Nn.Io.load net_path in
    let domain = Cert.Bounds.box_domain net ~lo ~hi in
    let rng = Random.State.make [| seed |] in
    let dim = Nn.Network.input_dim net in
    let xs =
      Array.init samples (fun _ ->
          Array.init dim (fun _ -> lo +. Random.State.float rng (hi -. lo)))
    in
    let r = Attack.Global_under.sweep ~seed ~domain net ~xs ~delta in
    Array.iteri
      (fun j e -> Printf.printf "output %d: eps >= %.6f (PGD)\n" j e)
      r.Attack.Global_under.eps_under;
    Printf.printf "time: %.2fs\n" r.Attack.Global_under.runtime
  in
  let info_ =
    Cmd.info "attack"
      ~doc:"Under-approximate global robustness by PGD from random points."
  in
  Cmd.v info_
    Term.(const run $ net_arg $ delta_arg $ box_arg $ samples $ seed)

let info_cmd =
  let run net_path =
    let net = Nn.Io.load net_path in
    Printf.printf "architecture: %s\ninput dim: %d\noutput dim: %d\n\
                   hidden neurons: %d\nparameters: %d\ndigest: %s\n"
      (Nn.Network.describe net) (Nn.Network.input_dim net)
      (Nn.Network.output_dim net) (Nn.Network.hidden_neuron_count net)
      (Nn.Network.param_count net) (Nn.Network.digest net)
  in
  Cmd.v (Cmd.info "info" ~doc:"Describe a saved network.")
    Term.(const run $ net_arg)

(* --- lint --- *)

let lint_cmd =
  let window =
    Arg.(value & opt pos_int 2 & info [ "window"; "W" ] ~doc:"ND window size.")
  in
  let samples =
    Arg.(value & opt pos_int 32
         & info [ "samples" ]
             ~doc:"Concrete input pairs for the bound-soundness check.")
  in
  let fault =
    let doc =
      "Inject a deliberate defect before linting (one of $(b,nan-coeff), \
       $(b,empty-row), $(b,bad-interval)); the run must then report errors \
       and exit nonzero."
    in
    Arg.(value
         & opt (some (enum [ ("nan-coeff", `Nan_coeff);
                             ("empty-row", `Empty_row);
                             ("bad-interval", `Bad_interval) ])) None
         & info [ "seed-fault" ] ~doc)
  in
  let run cache family id size image delta (lo, hi) window samples fault =
    setup_cache cache;
    match build_trained family ~id ~size ~image with
    | Error msg -> `Error (true, msg)
    | Ok trained ->
        let net = trained.Exp.Models.net in
        let input = Cert.Bounds.box_domain net ~lo ~hi in
        let config =
          { Cert.Certifier.default_config with Cert.Certifier.window }
        in
        let res = Cert.Certifier.certify ~config net ~input ~delta in
        let bounds = res.Cert.Certifier.bounds in
        (match fault with
         | Some `Bad_interval ->
             (* shrink one distance interval to a point: concrete twin
                pairs must escape it *)
             bounds.Cert.Bounds.dy.(0).(0) <- Cert.Interval.point 0.0
         | _ -> ());
        let all = ref [] in
        let push ds = all := !all @ ds in
        push (Audit.Encoding.intervals bounds);
        push (Audit.Encoding.bounds_soundness ~samples net bounds);
        (* symbolic pre-analyses: tightness chain, nonempty meet with
           the certified bounds, sampled soundness, phase consistency *)
        push
          (Audit.Symbolic_check.check ~samples ~certified:bounds net ~input
             ~delta);
        (* the planner's layer-pass plans, audited without executing:
           counter consistency, variable ranges, replay overrides *)
        let pconfig =
          { Cert.Planner.window; refine = Cert.Refine.No_refine;
            mode = Cert.Encode.Relaxed; exact_output_relation = true;
            dedup = true; branch = Search.Strategy.Most_fractional;
            dual_sens = None }
        in
        let n = Nn.Network.n_layers net in
        for i = 0 to n - 1 do
          let name = Printf.sprintf "plan:layer%d" i in
          push
            (Audit.Plan_check.check ~name
               (Cert.Planner.plan_values pconfig bounds net ~layer:i));
          if (Nn.Network.layer net i).Nn.Layer.relu then
            push
              (Audit.Plan_check.check ~name:(name ^ ":dx")
                 (Cert.Planner.plan_dx pconfig bounds net ~layer:i))
        done;
        for i = 0 to n - 1 do
          let out_dim = Nn.Layer.out_dim (Nn.Network.layer net i) in
          let targets = Array.init out_dim Fun.id in
          let view = Cert.Subnet.cone net ~last:i ~targets ~window in
          let enc = Cert.Encode.itne ~mode:Cert.Encode.Relaxed ~bounds view in
          (match (fault, i) with
           | Some `Nan_coeff, 0 ->
               Lp.Model.add_constr enc.Cert.Encode.model
                 [ (0, Float.nan) ] Lp.Model.Le 0.0
           | Some `Empty_row, 0 ->
               Lp.Model.add_constr enc.Cert.Encode.model [] Lp.Model.Ge 1.0
           | _ -> ());
          let name = Printf.sprintf "itne:layer%d" i in
          push (Audit_core.Lint.model ~name enc.Cert.Encode.model);
          push (Audit.Encoding.itne ~name ~bounds enc)
        done;
        let out_dim = Nn.Network.output_dim net in
        let view =
          Cert.Subnet.cone net ~last:(n - 1)
            ~targets:(Array.init out_dim Fun.id) ~window:n
        in
        let benc =
          Cert.Encode.btne ~split_relus:true ~link_input_dist:true
            ~mode:Cert.Encode.Relaxed ~bounds view
        in
        push (Audit_core.Lint.model ~name:"btne" benc.Cert.Encode.model);
        push (Audit.Encoding.btne benc);
        let diags = Audit_core.Diag.sort !all in
        List.iter
          (fun d -> print_endline (Audit_core.Diag.to_string d))
          diags;
        let count s = Audit_core.Diag.count s diags in
        Printf.printf "lint: %d error(s), %d warning(s), %d note(s)\n"
          (count Audit_core.Diag.Error) (count Audit_core.Diag.Warn)
          (count Audit_core.Diag.Info);
        if count Audit_core.Diag.Error > 0 then exit 1;
        `Ok ()
  in
  let info_ =
    Cmd.info "lint"
      ~doc:"Statically audit the certifier's LP encodings of a model family."
      ~man:
        [ `S Manpage.s_description;
          `P
            "Trains (or loads) the selected benchmark network, runs the \
             certifier to obtain tightened bounds, then lints every \
             per-layer ITNE model and the full twin-network encoding: \
             malformed rows, numeric-conditioning hazards, interval \
             validity, twin symmetry, relaxation soundness (by sampling \
             the true ReLU semantics) and empirical bound soundness. \
             Exits nonzero when any error-severity finding is reported." ]
  in
  Cmd.v info_
    Term.(
      ret
        (const run $ cache_arg $ family_arg $ id_arg $ size_arg $ image_arg
         $ delta_arg $ box_arg $ window $ samples $ fault))

(* --- serve / submit --- *)

let socket_arg =
  let doc = "Unix-domain socket path for the daemon." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~doc)

let port_arg =
  let doc = "TCP port on 127.0.0.1 for the daemon." in
  Arg.(value & opt (some pos_int) None & info [ "port" ] ~doc)

(* Exactly one of --socket / --port; [Error] is a usage message. *)
let resolve_addr socket port =
  match (socket, port) with
  | Some path, None -> Ok (Serve.Server.Unix_path path)
  | None, Some port -> Ok (Serve.Server.Tcp port)
  | None, None -> Error "one of --socket or --port is required"
  | Some _, Some _ -> Error "--socket and --port are mutually exclusive"

let serve_cmd =
  let workers =
    Arg.(value & opt pos_int 2
         & info [ "workers" ] ~doc:"Worker domains answering requests.")
  in
  let queue_cap =
    Arg.(value & opt pos_int 64
         & info [ "queue-cap" ]
             ~doc:"Bounded request queue length (a full queue rejects).")
  in
  let cache =
    Arg.(value & opt (some string) None
         & info [ "cache" ]
             ~doc:"Result-cache persistence file (appended; survives \
                   restarts).")
  in
  let cache_ns =
    Arg.(value & opt (some string) None
         & info [ "cache-ns" ]
             ~doc:"Result-cache key namespace.  Give each shard its own \
                   when daemons behind a router share a --cache file, so \
                   they never serve each other's entries.")
  in
  let domains =
    Arg.(value & opt pos_int 1
         & info [ "domains" ]
             ~doc:"Certifier domains per worker (keep at 1 unless workers \
                   are few and requests huge).")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Log each request to stderr.")
  in
  let metrics =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Include the process-wide solver metrics registry \
                   (pivots, warm/cold splits, dedup counters) in \
                   $(b,stats) responses.")
  in
  let run socket port workers queue_cap cache cache_ns domains verbose
      metrics =
    match resolve_addr socket port with
    | Error msg -> `Error (true, msg)
    | Ok addr ->
        let config =
          { (Serve.Server.default_config addr) with
            Serve.Server.workers; queue_cap; cache_path = cache;
            cache_ns; domains; verbose; metrics }
        in
        (try Serve.Server.run config with Failure msg -> prerr_endline msg;
                                                         exit 1);
        `Ok ()
  in
  let info_ =
    Cmd.info "serve"
      ~doc:"Run the certification daemon."
      ~man:
        [ `S Manpage.s_description;
          `P
            "Long-running certification service speaking line-delimited \
             JSON over a unix-domain socket or loopback TCP.  Certify \
             requests go through a bounded queue to a pool of worker \
             domains; each worker keeps compiled cone matrices and warm \
             simplex sessions alive across requests, and answers are \
             served from a content-addressed result cache when the same \
             (network, box, delta, configuration) query was already \
             solved.  SIGINT/SIGTERM drain gracefully: queued requests \
             finish, the cache file is flushed, then the process exits." ]
  in
  Cmd.v info_
    Term.(
      ret (const run $ socket_arg $ port_arg $ workers $ queue_cap $ cache
           $ cache_ns $ domains $ verbose $ metrics))

let submit_cmd =
  let net =
    Arg.(value & opt (some file) None
         & info [ "net" ] ~doc:"Saved network to certify (sent inline).")
  in
  let digest =
    Arg.(value & opt (some string) None
         & info [ "digest" ]
             ~doc:"Digest of a network already loaded into the daemon.")
  in
  let window =
    Arg.(value & opt pos_int 2 & info [ "window"; "W" ] ~doc:"ND window size.")
  in
  let refine =
    Arg.(value & opt nonneg_int 0
         & info [ "refine"; "r" ] ~doc:"Neurons refined per sub-problem.")
  in
  let refine_frac =
    Arg.(value & opt (some unit_float) None
         & info [ "refine-frac" ]
             ~doc:"Fraction of relaxable neurons refined (overrides \
                   --refine).")
  in
  let no_cache =
    Arg.(value & flag
         & info [ "no-cache" ] ~doc:"Bypass the daemon's result cache.")
  in
  let deadline_ms =
    Arg.(value & opt (some pos_float) None
         & info [ "deadline-ms" ]
             ~doc:"Per-request deadline; expired requests answer with an \
                   error.")
  in
  let load_n =
    Arg.(value & opt (some pos_int) None
         & info [ "load" ]
             ~doc:"Load mode: submit the query $(docv) times and report \
                   latency statistics.")
  in
  let concurrency =
    Arg.(value & opt pos_int 1
         & info [ "concurrency" ] ~doc:"Connections used in load mode.")
  in
  let batch =
    Arg.(value & opt pos_int 1
         & info [ "batch" ]
             ~doc:"In load mode, mix batch requests of $(docv) queries \
                   with single requests (alternating), exercising both \
                   wire paths; per-request latency for batch items is \
                   the batch wall time divided by its size.")
  in
  let timeout_s =
    Arg.(value & opt (some pos_float) None
         & info [ "timeout-s" ]
             ~doc:"Socket read timeout; a wedged daemon fails the request \
                   instead of hanging it.")
  in
  let stats =
    Arg.(value & flag
         & info [ "stats" ] ~doc:"Print daemon statistics (JSON) and exit.")
  in
  let ping =
    Arg.(value & flag & info [ "ping" ] ~doc:"Check liveness and exit.")
  in
  let shutdown =
    Arg.(value & flag
         & info [ "shutdown" ] ~doc:"Ask the daemon to drain and exit.")
  in
  let print_result (r : Serve.Wire.result) =
    Array.iteri
      (fun j e -> Printf.printf "output %d: eps <= %.6f\n" j e)
      r.Serve.Wire.r_eps;
    Printf.printf
      "digest: %s\ncached: %b\nserver time: %.2fms; %d LP solves (%d warm), \
       %d MILP solves\n"
      r.Serve.Wire.r_digest r.Serve.Wire.r_cached r.Serve.Wire.r_time_ms
      r.Serve.Wire.r_lp_solves r.Serve.Wire.r_lp_warm
      r.Serve.Wire.r_milp_solves
  in
  let run socket port net digest delta (lo, hi) window refine refine_frac
      branch no_cache deadline_ms load_n concurrency batch
      timeout_s stats ping shutdown =
    match resolve_addr socket port with
    | Error msg -> `Error (true, msg)
    | Ok addr -> (
        let with_conn f =
          let c = Serve.Client.connect ?timeout_s addr in
          Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () ->
              f c)
        in
        try
          if ping then begin
            with_conn (fun c ->
                match Serve.Client.rpc c Serve.Wire.Ping with
                | Serve.Wire.Ack -> print_endline "ok"
                | _ -> failwith "unexpected ping response");
            `Ok ()
          end
          else if stats then begin
            with_conn (fun c ->
                match Serve.Client.rpc c Serve.Wire.Stats with
                | Serve.Wire.Stats_payload j ->
                    print_endline (Serve.Json.to_string j)
                | Serve.Wire.Error msg -> failwith msg
                | _ -> failwith "unexpected stats response");
            `Ok ()
          end
          else if shutdown then begin
            with_conn (fun c ->
                match Serve.Client.rpc c Serve.Wire.Shutdown with
                | Serve.Wire.Ack -> print_endline "draining"
                | Serve.Wire.Error msg -> failwith msg
                | _ -> failwith "unexpected shutdown response");
            `Ok ()
          end
          else begin
            (* load + re-serialize: validates locally and sends the
               canonical form the daemon's digest is defined over *)
            let q_net =
              Option.map (fun p -> Nn.Io.to_string (Nn.Io.load p)) net
            in
            if q_net = None && digest = None then
              failwith "one of --net or --digest is required";
            let q_refine =
              match refine_frac with
              | Some f -> Cert.Refine.Fraction f
              | None ->
                  if refine > 0 then Cert.Refine.Count refine
                  else Cert.Refine.No_refine
            in
            let query =
              { Serve.Wire.q_net; q_digest = digest; q_delta = delta;
                q_lo = lo; q_hi = hi; q_window = window; q_refine;
                q_branch = branch; q_no_cache = no_cache;
                q_deadline_ms = deadline_ms }
            in
            (match load_n with
             | None -> with_conn (fun c -> print_result
                                             (Serve.Client.certify c query))
             | Some n ->
                 (* Load mode: [concurrency] domains, each with its own
                    connection, splitting [n] queries; wall-clock and
                    per-request latencies measured client-side.  With
                    --batch B, workers alternate single requests and
                    B-item batches, exercising both wire paths. *)
                 let k = min concurrency n in
                 let latencies = Array.make n 0.0 in
                 let next = Atomic.make 0 in
                 let failures = Atomic.make 0 in
                 let work () =
                   with_conn (fun c ->
                       let send_batch = ref false in
                       let rec go () =
                         let want =
                           if batch > 1 && !send_batch then batch else 1
                         in
                         send_batch := not !send_batch;
                         let i = Atomic.fetch_and_add next want in
                         if i < n then begin
                           let len = min want (n - i) in
                           let t0 = Unix.gettimeofday () in
                           (try
                              if len = 1 then
                                ignore (Serve.Client.certify c query)
                              else
                                let rs, _ =
                                  Serve.Client.certify_batch c
                                    (Array.make len query)
                                in
                                Array.iter
                                  (function
                                    | Stdlib.Error _ ->
                                        Atomic.incr failures
                                    | Ok _ -> ())
                                  rs
                            with Failure _ | Serve.Client.Timeout _ ->
                              ignore
                                (Atomic.fetch_and_add failures len));
                           let per =
                             (Unix.gettimeofday () -. t0)
                             *. 1000.0 /. float_of_int len
                           in
                           for j = i to i + len - 1 do
                             latencies.(j) <- per
                           done;
                           go ()
                         end
                       in
                       go ())
                 in
                 let t0 = Unix.gettimeofday () in
                 let doms =
                   Array.init (k - 1) (fun _ -> Domain.spawn work)
                 in
                 work ();
                 Array.iter Domain.join doms;
                 let wall = Unix.gettimeofday () -. t0 in
                 Array.sort compare latencies;
                 let pct p =
                   latencies.(min (n - 1)
                                (int_of_float (p *. float_of_int n)))
                 in
                 let mean =
                   Array.fold_left ( +. ) 0.0 latencies /. float_of_int n
                 in
                 Printf.printf
                   "%d requests, %d connection(s), %d batch size, \
                    %d failure(s)\n\
                    wall: %.2fs (%.1f req/s)\n\
                    latency ms: mean %.2f  p50 %.2f  p90 %.2f  p99 %.2f  \
                    max %.2f\n"
                   n k batch (Atomic.get failures) wall
                   (float_of_int n /. wall)
                   mean (pct 0.50) (pct 0.90) (pct 0.99)
                   latencies.(n - 1);
                 (* behind a router, also report the per-shard view *)
                 with_conn (fun c ->
                     match Serve.Client.rpc c Serve.Wire.Stats with
                     | Serve.Wire.Stats_payload j -> (
                         match
                           Option.bind (Serve.Json.member "router" j)
                             (Serve.Json.mem_list "per_shard")
                         with
                         | None -> ()
                         | Some rows ->
                             List.iter
                               (fun row ->
                                 let int name =
                                   Option.value ~default:0
                                     (Serve.Json.mem_int name row)
                                 in
                                 let lat name =
                                   match
                                     Option.bind
                                       (Serve.Json.member "latency" row)
                                       (Serve.Json.mem_num name)
                                   with
                                   | Some v -> v
                                   | None -> 0.0
                                 in
                                 Printf.printf
                                   "shard %d: routed %d  retried-onto %d  \
                                    p50 %.2fms  p99 %.2fms\n"
                                   (int "shard") (int "routed")
                                   (int "retried_onto") (lat "p50_ms")
                                   (lat "p99_ms"))
                               rows)
                     | _ -> ()));
            `Ok ()
          end
        with Failure msg -> `Error (false, msg))
  in
  let info_ =
    Cmd.info "submit"
      ~doc:"Submit requests to a running certification daemon."
      ~man:
        [ `S Manpage.s_description;
          `P
            "Single-query mode sends one certify request (the network file \
             inline, or a --digest of one already loaded) and prints the \
             certified bounds.  Load mode (--load N --concurrency K) \
             repeats the query N times over K connections and reports \
             client-side latency statistics.  --stats, --ping and \
             --shutdown talk to the daemon's control operations." ]
  in
  Cmd.v info_
    Term.(
      ret (const run $ socket_arg $ port_arg $ net $ digest $ delta_arg
           $ box_arg $ window $ refine $ refine_frac $ branch_arg $ no_cache
           $ deadline_ms $ load_n $ concurrency
           $ batch $ timeout_s $ stats $ ping $ shutdown))

(* --- shard: the router front process --- *)

(* All digits: a loopback TCP port.  Anything else: a unix socket path. *)
let backend_conv : Serve.Server.addr Arg.conv =
  let parse s =
    let s = String.trim s in
    if s = "" then Error (`Msg "empty backend address")
    else if String.for_all (fun ch -> ch >= '0' && ch <= '9') s then
      match int_of_string_opt s with
      | Some p when p > 0 && p < 65536 -> Ok (Serve.Server.Tcp p)
      | _ -> Error (`Msg (s ^ ": not a valid port"))
    else Ok (Serve.Server.Unix_path s)
  in
  let print ppf = function
    | Serve.Server.Unix_path p -> Format.pp_print_string ppf p
    | Serve.Server.Tcp p -> Format.fprintf ppf "%d" p
  in
  Arg.conv ~docv:"ADDR" (parse, print)

let shard_cmd =
  let backends =
    Arg.(value & opt_all backend_conv []
         & info [ "backend" ] ~docv:"ADDR"
             ~doc:"Backend daemon: a unix socket path, or a loopback TCP \
                   port (all digits).  Repeatable; the shard index is the \
                   order given.")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Log routing events to \
                                                 stderr.")
  in
  let connect_timeout =
    Arg.(value & opt float 10.0
         & info [ "connect-timeout-s" ]
             ~doc:"How long to wait for each backend at startup.")
  in
  let run socket port backends verbose connect_timeout_s =
    match resolve_addr socket port with
    | Error msg -> `Error (true, msg)
    | Ok addr ->
        if backends = [] then
          `Error (true, "at least one --backend is required")
        else begin
          (try
             Serve.Shard.run
               { Serve.Shard.addr; backends; handle_signals = true; verbose;
                 connect_timeout_s }
           with Failure msg ->
             prerr_endline msg;
             exit 1);
          `Ok ()
        end
  in
  let info_ =
    Cmd.info "shard"
      ~doc:"Run the shard router in front of several daemons."
      ~man:
        [ `S Manpage.s_description;
          `P
            "One front socket, N certification daemons.  Speaks the same \
             wire protocol as $(b,grc serve), so clients need no changes: \
             certify requests route by network digest, batch items fan \
             out across shards and merge back as a tagged stream, load \
             and stats fan out to every shard.  A backend that dies has \
             its in-flight queries retried on the next live shard, and \
             the affected answers carry a degraded flag.  Results pass \
             through bit-exactly; the router never solves anything." ]
  in
  Cmd.v info_
    Term.(
      ret (const run $ socket_arg $ port_arg $ backends $ verbose
           $ connect_timeout))

(* --- sweep: certify a delta x region grid through the service --- *)

let floats_conv : float list Arg.conv =
  let parse s =
    let parts = String.split_on_char ',' (String.trim s) in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | p :: rest -> (
          match float_of_string_opt (String.trim p) with
          | Some v -> go (v :: acc) rest
          | None -> Error (`Msg (Printf.sprintf "%S is not a number" p)))
    in
    match go [] parts with
    | Ok [] -> Error (`Msg "empty list")
    | r -> r
  in
  let print ppf l =
    Format.pp_print_string ppf
      (String.concat "," (List.map (Printf.sprintf "%g") l))
  in
  Arg.conv ~docv:"X,Y,..." (parse, print)

let regions_conv : (float * float) list Arg.conv =
  let parse s =
    let region p =
      match String.split_on_char ':' (String.trim p) with
      | [ a; b ] -> (
          match (float_of_string_opt a, float_of_string_opt b) with
          | Some lo, Some hi when lo < hi -> Ok (lo, hi)
          | Some _, Some _ -> Error (`Msg (p ^ ": need lo < hi"))
          | _ -> Error (`Msg (p ^ ": expected LO:HI")))
      | _ -> Error (`Msg (p ^ ": expected LO:HI"))
    in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | p :: rest -> Result.bind (region p) (fun r -> go (r :: acc) rest)
    in
    match go [] (String.split_on_char ',' (String.trim s)) with
    | Ok [] -> Error (`Msg "empty list")
    | r -> r
  in
  let print ppf l =
    Format.pp_print_string ppf
      (String.concat ","
         (List.map (fun (lo, hi) -> Printf.sprintf "%g:%g" lo hi) l))
  in
  Arg.conv ~docv:"LO:HI,..." (parse, print)

let sweep_cmd =
  let net =
    Arg.(value & opt (some file) None
         & info [ "net" ] ~doc:"Saved network to sweep (loaded once, then \
                                referenced by digest).")
  in
  let digest =
    Arg.(value & opt (some string) None
         & info [ "digest" ]
             ~doc:"Digest of a network already loaded into the service.")
  in
  let deltas =
    Arg.(required & opt (some floats_conv) None
         & info [ "deltas" ] ~doc:"Comma-separated perturbation bounds.")
  in
  let regions =
    Arg.(value & opt regions_conv [ (0.0, 1.0) ]
         & info [ "regions" ]
             ~doc:"Comma-separated input boxes LO:HI; the grid is the \
                   cartesian product deltas x regions.")
  in
  let window =
    Arg.(value & opt pos_int 2 & info [ "window"; "W" ] ~doc:"ND window size.")
  in
  let batch =
    Arg.(value & opt pos_int 16
         & info [ "batch" ] ~doc:"Grid cells sent per batch request.")
  in
  let timeout_s =
    Arg.(value & opt (some pos_float) None
         & info [ "timeout-s" ]
             ~doc:"Socket read timeout; a wedged service fails the sweep \
                   instead of hanging it.")
  in
  let no_cache =
    Arg.(value & flag
         & info [ "no-cache" ] ~doc:"Bypass the service's result cache.")
  in
  let json_out =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Also write the full results table as JSON (exact float \
                   bits) to $(docv).")
  in
  let run socket port net digest deltas regions window batch timeout_s
      no_cache json_out =
    match resolve_addr socket port with
    | Error msg -> `Error (true, msg)
    | Ok addr -> (
        try
          let c = Serve.Client.connect ?timeout_s addr in
          Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
          let digest =
            match (net, digest) with
            | Some path, _ ->
                Serve.Client.load c (Nn.Io.to_string (Nn.Io.load path))
            | None, Some d -> d
            | None, None -> failwith "one of --net or --digest is required"
          in
          let cells =
            List.concat_map
              (fun delta ->
                List.map (fun (lo, hi) -> (delta, lo, hi)) regions)
              deltas
            |> Array.of_list
          in
          let n = Array.length cells in
          let query (delta, lo, hi) =
            { Serve.Wire.default_query with
              Serve.Wire.q_digest = Some digest; q_delta = delta; q_lo = lo;
              q_hi = hi; q_window = window; q_no_cache = no_cache }
          in
          let results = Array.make n (Stdlib.Error "not submitted") in
          let done_cells = ref 0 in
          let errors = ref 0 in
          let degraded = ref false in
          let progress () =
            Printf.eprintf "\rsweep: %d/%d cells (%d error%s)%!" !done_cells
              n !errors
              (if !errors = 1 then "" else "s")
          in
          let t0 = Unix.gettimeofday () in
          let k = ref 0 in
          while !k < n do
            let len = min batch (n - !k) in
            let base = !k in
            let qs = Array.init len (fun i -> query cells.(base + i)) in
            let batch_res, deg =
              Serve.Client.certify_batch c
                ~on_item:(fun _ res ->
                  incr done_cells;
                  (match res with
                   | Stdlib.Error _ -> incr errors
                   | Ok _ -> ());
                  progress ())
                qs
            in
            degraded := !degraded || deg;
            Array.blit batch_res 0 results base len;
            k := !k + len
          done;
          let wall = Unix.gettimeofday () -. t0 in
          Printf.eprintf "\n%!";
          (* the machine-readable table: one row per grid cell, grid
             order, eps to 6 decimals (matching grc certify's output) *)
          print_endline "# delta\tlo\thi\tshard\tdegraded\tcached\teps";
          Array.iteri
            (fun i (delta, lo, hi) ->
              match results.(i) with
              | Ok r ->
                  Printf.printf "%g\t%g\t%g\t%s\t%b\t%b\t%s\n" delta lo hi
                    (match r.Serve.Wire.r_shard with
                     | Some s -> string_of_int s
                     | None -> "-")
                    r.Serve.Wire.r_degraded r.Serve.Wire.r_cached
                    (String.concat ","
                       (Array.to_list
                          (Array.map
                             (Printf.sprintf "%.6f")
                             r.Serve.Wire.r_eps)))
              | Error msg ->
                  Printf.printf "%g\t%g\t%g\t-\t-\t-\terror: %s\n" delta lo
                    hi msg)
            cells;
          Printf.eprintf
            "sweep: %d cells in %.2fs (%.1f cells/s)%s%s\n%!" n wall
            (float_of_int n /. wall)
            (if !errors > 0 then Printf.sprintf ", %d errors" !errors
             else "")
            (if !degraded then ", DEGRADED (a shard died mid-sweep)"
             else "");
          (match json_out with
           | None -> ()
           | Some file ->
               let open Serve in
               let cell_json i (delta, lo, hi) =
                 let common =
                   [ ("delta", Json.Num delta); ("lo", Json.Num lo);
                     ("hi", Json.Num hi) ]
                 in
                 match results.(i) with
                 | Ok r ->
                     Json.Obj
                       (common
                        @ [ ("ok", Json.Bool true);
                            ("eps",
                             Json.List
                               (Array.to_list
                                  (Array.map
                                     (fun e -> Json.Num e)
                                     r.Wire.r_eps)));
                            ("cached", Json.Bool r.Wire.r_cached);
                            ("degraded", Json.Bool r.Wire.r_degraded);
                            ("time_ms", Json.Num r.Wire.r_time_ms) ]
                        @ (match r.Wire.r_shard with
                           | Some s ->
                               [ ("shard", Json.Num (float_of_int s)) ]
                           | None -> []))
                 | Error msg ->
                     Json.Obj
                       (common
                        @ [ ("ok", Json.Bool false);
                            ("error", Json.Str msg) ])
               in
               let j =
                 Json.Obj
                   [ ("digest", Json.Str digest);
                     ("cells",
                      Json.List
                        (Array.to_list (Array.mapi cell_json cells)));
                     ("summary",
                      Json.Obj
                        [ ("cells", Json.Num (float_of_int n));
                          ("errors", Json.Num (float_of_int !errors));
                          ("degraded", Json.Bool !degraded);
                          ("wall_s", Json.Num wall) ]) ]
               in
               let oc = open_out file in
               output_string oc (Json.to_string j);
               output_char oc '\n';
               close_out oc;
               Printf.eprintf "sweep: results written to %s\n%!" file);
          if !errors > 0 then exit 1;
          `Ok ()
        with
        | Failure msg -> `Error (false, msg)
        | Serve.Client.Timeout msg -> `Error (false, "timeout: " ^ msg))
  in
  let info_ =
    Cmd.info "sweep"
      ~doc:"Certify a whole delta x region grid through the service."
      ~man:
        [ `S Manpage.s_description;
          `P
            "Builds the cartesian product of --deltas and --regions, \
             loads the network once, and drives the grid through a \
             daemon or shard router as batch requests: cells stream back \
             in completion order (a progress line tracks them) and are \
             printed as a grid-ordered TSV table.  Behind a router the \
             cells spread across every shard; eps values are \
             bit-identical to one-shot $(b,grc certify) either way." ]
  in
  Cmd.v info_
    Term.(
      ret (const run $ socket_arg $ port_arg $ net $ digest $ deltas
           $ regions $ window $ batch $ timeout_s $ no_cache $ json_out))

(* --- trace-check ---

   Validate a Chrome trace_event file written by [certify --trace=FILE]:
   structural JSON shape, proper nesting of the complete ("X") events
   within each thread track, and the presence of required span names.
   Used by scripts/check.sh to gate the tracing exporter. *)

let trace_check_cmd =
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"Chrome trace_event JSON file.")
  in
  let requires =
    Arg.(value & opt_all string []
         & info [ "require" ] ~docv:"NAME"
             ~doc:"Fail unless at least one span named $(docv) is present \
                   (repeatable).")
  in
  let run file requires =
    let check () =
      let text = In_channel.with_open_bin file In_channel.input_all in
      let j =
        try Serve.Json.of_string text
        with Failure msg -> failwith ("invalid JSON: " ^ msg)
      in
      let events =
        match Serve.Json.mem_list "traceEvents" j with
        | Some evs -> evs
        | None -> failwith "no \"traceEvents\" array"
      in
      let decoded =
        List.map
          (fun e ->
            match
              ( Serve.Json.mem_str "name" e, Serve.Json.mem_str "ph" e,
                Serve.Json.mem_num "ts" e, Serve.Json.mem_num "dur" e,
                Serve.Json.mem_int "tid" e )
            with
            | Some name, Some "X", Some ts, Some dur, Some tid ->
                if dur < 0.0 then
                  failwith (Printf.sprintf "span %S has negative dur" name);
                (name, ts, dur, tid)
            | _ ->
                failwith
                  "malformed trace event (need name, ph=\"X\", ts, dur, tid)")
          events
      in
      if decoded = [] then failwith "empty trace";
      List.iter
        (fun want ->
          if not (List.exists (fun (n, _, _, _) -> n = want) decoded) then
            failwith (Printf.sprintf "required span %S not found" want))
        requires;
      (* Nesting: within one tid, sorted by (start asc, duration desc),
         every span must lie entirely inside the enclosing open span.
         Timestamps are printed with 3 decimals, so allow rounding. *)
      let tol = 0.01 in
      let tids = List.sort_uniq compare (List.map (fun (_, _, _, t) -> t) decoded) in
      List.iter
        (fun tid ->
          let track =
            List.filter (fun (_, _, _, t) -> t = tid) decoded
            |> List.sort (fun (_, ts1, d1, _) (_, ts2, d2, _) ->
                   match compare ts1 ts2 with
                   | 0 -> compare d2 d1
                   | c -> c)
          in
          let stack = ref [] in
          List.iter
            (fun (name, ts, dur, _) ->
              (* a span still on the stack encloses [ts] only if it ends
                 meaningfully after it; one that ends at-or-near [ts] is a
                 sibling (timestamps carry 3-decimal rounding) *)
              let rec unwind () =
                match !stack with
                | (_, pend) :: rest when pend <= ts +. tol ->
                    stack := rest;
                    unwind ()
                | _ -> ()
              in
              unwind ();
              (match !stack with
               | (pname, pend) :: _ when ts +. dur > pend +. tol ->
                   failwith
                     (Printf.sprintf
                        "tid %d: span %S [%g, %g] overflows enclosing %S \
                         (ends %g)"
                        tid name ts (ts +. dur) pname pend)
               | _ -> ());
              stack := (name, ts +. dur) :: !stack)
            track)
        tids;
      Printf.printf "trace-check: %s ok (%d spans, %d tracks)\n" file
        (List.length decoded) (List.length tids)
    in
    match check () with
    | () -> `Ok ()
    | exception Failure msg -> `Error (false, file ^ ": " ^ msg)
  in
  let info_ =
    Cmd.info "trace-check"
      ~doc:"Validate a Chrome trace_event file written by certify --trace."
  in
  Cmd.v info_ Term.(ret (const run $ file $ requires))

let fig4_cmd =
  let run () = Exp.Fig4.print Format.std_formatter (Exp.Fig4.run ()) in
  Cmd.v
    (Cmd.info "fig4" ~doc:"Reproduce the paper's illustrating example table.")
    Term.(const run $ const ())

let case_study_cmd =
  let episodes =
    Arg.(value & opt pos_int 20
         & info [ "episodes" ] ~doc:"Simulation episodes.")
  in
  let run cache episodes =
    setup_cache cache;
    let trained = Exp.Models.camera_net ~id:"camera" ~h:12 ~w:24 () in
    let c = Exp.Case_study.certify trained in
    Exp.Case_study.print_certification Format.std_formatter c;
    let points =
      Exp.Case_study.fgsm_sweep ~episodes ~steps:60 ~h:12 ~w:24
        ~dd_bound:c.Exp.Case_study.dd_safe
        ~deltas:[ 0.0; 2.0 /. 255.0; 5.0 /. 255.0; 10.0 /. 255.0 ]
        Control.Acc.default_params trained
    in
    Exp.Case_study.print_sweep Format.std_formatter points
  in
  Cmd.v
    (Cmd.info "case-study"
       ~doc:"Run the ACC perception safety case study end to end.")
    Term.(const run $ cache_arg $ episodes)

(* --- train-robust: certifier-in-the-loop robust training --- *)

let train_robust_cmd =
  let epochs =
    Arg.(value & opt pos_int 6
         & info [ "epochs" ] ~doc:"Robust fine-tuning epochs.")
  in
  let batch_size =
    Arg.(value & opt pos_int 16 & info [ "batch-size" ] ~doc:"Batch size.")
  in
  let lr =
    Arg.(value & opt float 1e-4 & info [ "lr" ] ~doc:"Adam learning rate.")
  in
  let lambda =
    Arg.(value & opt float 1e-3
         & info [ "lambda" ]
             ~doc:"Weight of the differentiable robustness surrogate in the \
                   training loss (0 recovers plain training).")
  in
  let grid =
    Arg.(value & opt floats_conv []
         & info [ "grid" ]
             ~doc:"Extra comma-separated deltas re-certified each epoch \
                   (the target delta is always included).")
  in
  let window =
    Arg.(value & opt pos_int 2
         & info [ "window"; "W" ]
             ~doc:"Certifier window for epoch re-certification.")
  in
  let seed =
    Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Shuffling seed.")
  in
  let acc_tol =
    Arg.(value & opt float 0.1
         & info [ "acc-tol" ]
             ~doc:"Regression accuracy tolerance: a prediction within this \
                   of the target counts as accurate.")
  in
  let workers =
    Arg.(value & opt pos_int 2
         & info [ "workers" ]
             ~doc:"Worker domains of the in-process certification daemon \
                   (ignored when --socket/--port points at an external \
                   service).")
  in
  let json_out =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the per-epoch records as JSON to $(docv).")
  in
  let save =
    Arg.(value & opt (some string) None
         & info [ "save" ] ~docv:"FILE"
             ~doc:"Save the robustly trained network to $(docv).")
  in
  let run cache family id size image epochs batch_size lr lambda delta (lo, hi)
      grid window seed acc_tol socket port workers json_out save =
    setup_cache cache;
    match build_trained family ~id ~size ~image with
    | Error msg -> `Error (true, msg)
    | Ok trained -> (
        try
          let fam =
            match family with
            | `Auto -> Exp.Train_robust.Auto_mpg
            | `Digits ->
                let image =
                  match image with One a -> a | Two (a, _) -> a
                in
                Exp.Train_robust.Digits { image }
            | `Camera ->
                let h, w =
                  match image with One a -> (a, 2 * a) | Two (a, b) -> (a, b)
                in
                Exp.Train_robust.Camera { h; w }
          in
          let train, test, loss = Exp.Train_robust.family_data fam in
          let config =
            { Exp.Train_robust.loss; optimizer = Nn.Train.adam ~lr ();
              epochs; batch_size; seed; lambda; delta; lo; hi; grid; window;
              acc_tol }
          in
          let net = trained.Exp.Models.net in
          let eps_max e = Array.fold_left Float.max 0.0 e in
          let on_epoch (r : Exp.Train_robust.epoch_record) _net =
            (match r.Exp.Train_robust.recert with
             | Some rc ->
                 Printf.printf
                   "epoch %d: train %.5f test %.5f acc %.3f surrogate %.4g \
                    | eps %.6f cache %d/%d %.2fs (%.1f cells/s)%s\n%!"
                   r.Exp.Train_robust.epoch r.Exp.Train_robust.train_loss
                   r.Exp.Train_robust.metric r.Exp.Train_robust.accuracy
                   r.Exp.Train_robust.surrogate
                   (eps_max rc.Exp.Train_robust.rc_eps)
                   rc.Exp.Train_robust.rc_cache_hits
                   rc.Exp.Train_robust.rc_cells rc.Exp.Train_robust.rc_wall
                   rc.Exp.Train_robust.rc_throughput
                   (if rc.Exp.Train_robust.rc_degraded then " DEGRADED"
                    else "")
             | None ->
                 Printf.printf
                   "epoch %d: train %.5f test %.5f acc %.3f surrogate %.4g\n%!"
                   r.Exp.Train_robust.epoch r.Exp.Train_robust.train_loss
                   r.Exp.Train_robust.metric r.Exp.Train_robust.accuracy
                   r.Exp.Train_robust.surrogate)
          in
          let with_client f =
            match (socket, port) with
            | None, None ->
                Exp.Train_robust.with_local_service ~workers (fun c -> f c)
            | socket, port -> (
                match resolve_addr socket port with
                | Error msg -> failwith msg
                | Ok addr ->
                    let c = Serve.Client.connect addr in
                    Fun.protect
                      ~finally:(fun () -> Serve.Client.close c)
                      (fun () -> f c))
          in
          with_client (fun client ->
              let records =
                Exp.Train_robust.run ~client ~on_epoch config net ~train
                  ~test
              in
              (* unchanged-net re-check: every grid cell must come back
                 from the result cache *)
              let recheck =
                Exp.Train_robust.recertify client ~window:config.window
                  ~lo:config.lo ~hi:config.hi
                  ~deltas:
                    [| config.delta |]
                  ~target:config.delta net
              in
              let first = List.hd records in
              let last = List.nth records (List.length records - 1) in
              let eps_of (r : Exp.Train_robust.epoch_record) =
                match r.Exp.Train_robust.recert with
                | Some rc -> eps_max rc.Exp.Train_robust.rc_eps
                | None -> Float.nan
              in
              Printf.printf "initial eps %.6f\n" (eps_of first);
              Printf.printf "final eps %.6f\n" (eps_of last);
              Printf.printf "initial acc %.4f final acc %.4f\n"
                first.Exp.Train_robust.accuracy
                last.Exp.Train_robust.accuracy;
              Printf.printf "recheck cache hits %d/%d\n"
                recheck.Exp.Train_robust.rc_cache_hits
                recheck.Exp.Train_robust.rc_cells;
              (match save with
               | Some path -> Nn.Io.save net path
               | None -> ());
              match json_out with
              | None -> ()
              | Some file ->
                  let open Serve in
                  let record_json (r : Exp.Train_robust.epoch_record) =
                    let base =
                      [ ("epoch",
                         Json.Num (float_of_int r.Exp.Train_robust.epoch));
                        ("train_loss",
                         Json.Num r.Exp.Train_robust.train_loss);
                        ("test_loss", Json.Num r.Exp.Train_robust.metric);
                        ("accuracy", Json.Num r.Exp.Train_robust.accuracy);
                        ("surrogate", Json.Num r.Exp.Train_robust.surrogate)
                      ]
                    in
                    let rc_fields =
                      match r.Exp.Train_robust.recert with
                      | None -> []
                      | Some rc ->
                          [ ("digest",
                             Json.Str rc.Exp.Train_robust.rc_digest);
                            ("eps",
                             Json.List
                               (Array.to_list
                                  (Array.map
                                     (fun e -> Json.Num e)
                                     rc.Exp.Train_robust.rc_eps)));
                            ("grid",
                             Json.List
                               (Array.to_list
                                  (Array.map
                                     (fun (d, eps) ->
                                       Json.Obj
                                         [ ("delta", Json.Num d);
                                           ("eps",
                                            Json.List
                                              (Array.to_list
                                                 (Array.map
                                                    (fun e -> Json.Num e)
                                                    eps))) ])
                                     rc.Exp.Train_robust.rc_grid)));
                            ("cells",
                             Json.Num
                               (float_of_int rc.Exp.Train_robust.rc_cells));
                            ("cache_hits",
                             Json.Num
                               (float_of_int
                                  rc.Exp.Train_robust.rc_cache_hits));
                            ("wall_s", Json.Num rc.Exp.Train_robust.rc_wall);
                            ("cells_per_s",
                             Json.Num rc.Exp.Train_robust.rc_throughput);
                            ("degraded",
                             Json.Bool rc.Exp.Train_robust.rc_degraded) ]
                    in
                    Json.Obj (base @ rc_fields)
                  in
                  let j =
                    Json.Obj
                      [ ("id", Json.Str trained.Exp.Models.id);
                        ("delta", Json.Num config.Exp.Train_robust.delta);
                        ("lambda", Json.Num config.Exp.Train_robust.lambda);
                        ("epochs", Json.List (List.map record_json records));
                        ("recheck_cache_hits",
                         Json.Num
                           (float_of_int
                              recheck.Exp.Train_robust.rc_cache_hits)) ]
                  in
                  let oc = open_out file in
                  output_string oc (Json.to_string j);
                  output_char oc '\n';
                  close_out oc);
          `Ok ()
        with Failure msg -> `Error (false, msg))
  in
  Cmd.v
    (Cmd.info "train-robust"
       ~doc:"Fine-tune a network against the differentiable \
             global-robustness surrogate, re-certifying through the batched \
             service every epoch.")
    Term.(
      ret
        (const run $ cache_arg $ family_arg $ id_arg $ size_arg $ image_arg
         $ epochs $ batch_size $ lr $ lambda $ delta_arg $ box_arg
         $ grid $ window $ seed $ acc_tol $ socket_arg $ port_arg $ workers
         $ json_out $ save))

let () =
  let doc = "Global robustness certification of ReLU networks (DATE 2022)." in
  let info_ = Cmd.info "grc" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info_
          [ train_cmd; train_robust_cmd; certify_cmd; attack_cmd; info_cmd;
            lint_cmd; fig4_cmd; case_study_cmd; serve_cmd; submit_cmd;
            shard_cmd; sweep_cmd; trace_check_cmd ]))
