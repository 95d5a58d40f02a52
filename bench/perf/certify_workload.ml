(* certify-mlp and certify-refine: one caller running one-shot
   Cert.Certifier.certify_box back to back (a closed loop of one).

   The loop repeats a cycle: the fixed panel, then the next seeded cell.
   cells_per_s is the panel's throughput, each panel cell timed as the
   median of its repeats, which keeps bursts of host load out of it. *)

open Common

type spec = {
  name : string;
  salt : int;
  nets : (string * (int * int)) list;  (* Auto-MPG hidden sizes, cheapest first *)
  config : Cert.Certifier.config;
  panel : (float * float * float) list;  (* boxes (lo, hi, delta), on every net *)
}

(* A cycle takes 4-6 s, so a 15 s run times each panel cell three or
   four times; traced runs need at least one untraced and one traced
   cycle. *)
let min_cycles = 3
let setup_reps = 5

let mlp =
  { name = "certify-mlp"; salt = 1;
    nets = [ ("dnn4", (16, 16)); ("dnn5", (32, 32)) ];
    config = Cert.Certifier.default_config;
    panel = [ (0.25, 0.75, 0.002); (0.0, 1.0, 0.003) ] }

(* The paper's Table I setting without its wall-clock cap on refined
   MILPs, so certified eps does not depend on machine speed.  Refined
   certification of a box of width 0.5 already takes 1-4 s on dnn3, so
   the panel uses narrower boxes. *)
let refine =
  let c = Exp.Table1.auto_mpg_config in
  { name = "certify-refine"; salt = 2;
    nets = [ ("dnn2", (8, 4)); ("dnn3", (8, 8)) ];
    config =
      { c with
        Cert.Certifier.milp_options =
          { c.Cert.Certifier.milp_options with Milp.time_limit = infinity } };
    panel = [ (0.35, 0.65, 0.002); (0.3, 0.7, 0.003) ] }

let run spec ctx =
  let nets =
    List.map
      (fun (id, sizes) -> (id, fun id -> (Exp.Models.auto_mpg_net ~id ~sizes ()).Exp.Models.net))
      spec.nets
  in
  let reps, setup_times =
    List.split
      (List.init setup_reps (fun rep -> time (fun () -> train_into ctx ~rep nets)))
  in
  let digests = check_digests ~workload:spec.name reps in
  let trained = List.hd (List.rev reps) in
  let net_of id = (List.find (fun t -> t.id = id) trained).net in
  let ids = List.map fst spec.nets in
  let panel = Cells.panel spec.panel ids in
  let n_panel = Array.length panel in
  let cycle_len = n_panel + 1 in
  let next_seeded = Cells.seeded ~seed:ctx.seed ~salt:spec.salt ids in
  let seeded = ref [||] in
  (* operation k: panel cell, or the seeded cell closing a cycle *)
  let cell k =
    let p = k mod cycle_len and c = k / cycle_len in
    if p < n_panel then panel.(p)
    else begin
      while Array.length !seeded <= c do
        seeded := Array.append !seeded [| next_seeded () |]
      done;
      !seeded.(c)
    end
  in
  let is_panel k = k mod cycle_len < n_panel in
  let certify (c : Cells.t) =
    (Cert.Certifier.certify_box ~config:spec.config (net_of c.Cells.net)
       ~lo:c.Cells.lo ~hi:c.Cells.hi ~delta:c.Cells.delta).Cert.Certifier.eps
  in
  (* Traced runs alternate untraced and traced cycles, so the tracing
     overhead compares the same cells at the same point of the run.  The
     first cycle's panel, untraced, is the counting unit of the per-layer
     counts. *)
  let traced_cycle k = ctx.trace && k / cycle_len mod 2 = 1 in
  let before = ref [] and counts = ref [] in
  if ctx.trace then begin
    Layers.start_tracing ();
    Layers.pause_tracing ()
  end;
  let ops =
    closed_loop ~seconds:ctx.seconds
      ~min_ops:(min_cycles * cycle_len)
      (fun k ->
        if ctx.trace && k mod cycle_len = 0 then
          if traced_cycle k then Layers.resume_tracing () else Layers.pause_tracing ();
        if ctx.trace && k = 0 then before := Layers.snapshot ();
        let r =
          match Obs.Trace.with_span "bench.certify" (fun () -> certify (cell k)) with
          | eps -> Ok eps
          | exception e -> Error (Printexc.to_string e)
        in
        if ctx.trace && k = n_panel - 1 then
          counts := Layers.delta ~before:!before ~after:(Layers.snapshot ());
        r)
  in
  let ops = List.map (fun (k, r, dt) -> (k, cell k, r, dt)) ops in
  let traced = if ctx.trace then Some (Layers.stop_tracing ()) else None in
  (* --- checks, outside the timed region --- *)
  let first = Hashtbl.create 64 in
  List.iter
    (fun (_, c, r, _) ->
      match (r, Hashtbl.find_opt first c) with
      | Error e, _ -> fail "%s %s raised %s" spec.name (Cells.label c) e
      | Ok eps, None ->
          Hashtbl.replace first c eps;
          Oracle.check ~seed:ctx.seed ~what:spec.name (net_of c.Cells.net) c eps
      | Ok eps, Some eps0 ->
          if not (bits_equal eps eps0) then
            fail "%s %s: repeat certified a different eps" spec.name (Cells.label c))
    ops;
  let eps_of c = Option.value ~default:[||] (Hashtbl.find_opt first c) in
  if not (bits_equal (certify panel.(0)) (eps_of panel.(0))) then
    fail "%s %s: re-run certified a different eps" spec.name (Cells.label panel.(0));
  let panel_eps = Array.concat (List.map eps_of (Array.to_list panel)) in
  (* the panel's throughput over the given operations, each panel cell
     timed as the median of its repeats *)
  let panel_cps ops =
    float_of_int n_panel
    /. Array.fold_left ( +. ) 0.0
         (Array.map
            (fun c ->
              median
                (Array.of_list
                   (List.filter_map
                      (fun (k, c', _, dt) -> if is_panel k && c' = c then Some dt else None)
                      ops)))
            panel)
  in
  let untraced_ops, traced_ops = List.partition (fun (k, _, _, _) -> not (traced_cycle k)) ops in
  let seeded_times = List.filter_map (fun (k, _, _, dt) -> if is_panel k then None else Some dt) ops in
  let n_ops = List.length ops in
  let per_layer =
    match traced with
    | Some (spans, kernels) ->
        let traced_s = List.fold_left (fun a (_, _, _, dt) -> a +. dt) 0.0 traced_ops in
        Layers.print_spans ~workload:spec.name ~wall:traced_s spans;
        Layers.compute ~counts:!counts ~spans ~kernels ~solved:(List.length traced_ops)
          ~given:
            [ ("setup.train_s", mean_train_s reps);
              ("trace.coverage", Layers.library_self spans /. traced_s);
              ("trace.cps_ratio", panel_cps traced_ops /. panel_cps untraced_ops) ]
    | None -> []
  in
  { workload = spec.name;
    digests;
    end_to_end =
      [ m "setup_s" (median (Array.of_list setup_times)) "s";
        m "cells_per_s" (panel_cps untraced_ops) "1/s";
        m "eps_gmean" (gmean panel_eps) "output";
        m "peak_rss_mb" (peak_rss_mb ()) "MB" ];
    per_layer;
    extra =
      [ m "cycles" (float_of_int (n_ops / cycle_len)) "count";
        m "seeded_cells_per_s"
          (float_of_int (List.length seeded_times) /. List.fold_left ( +. ) 0.0 seeded_times)
          "1/s" ];
    attempted = n_ops + 1 }
