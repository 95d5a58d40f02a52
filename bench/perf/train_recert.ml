(* train-recert: certifier-in-the-loop robust training
   (Exp.Train_robust.run) of the camera case-study net at 6x12, each
   epoch recertified through an in-process two-worker service
   (Train_robust.with_local_service), as [grc train-robust] does without
   --socket.  Every epoch certifies a slightly edited net, so the result
   cache always misses. *)

open Common

let name = "train-recert"
let h = 6
let w = 12
let target_delta = 2.0 /. 255.0

(* eps_gmean and the per-layer counts cover the first [min_records]
   records: the epoch-0 baseline and one robust epoch. *)
let min_records = 2
let setup_reps = 3

exception Stop

type record = { r : Exp.Train_robust.epoch_record; net : string; at : float }

let rc (x : record) = Option.get x.r.Exp.Train_robust.recert

(* Train a fresh copy of [net0] until [min_records] records exist and
   [seconds] have passed, recertifying every epoch.  Returns the records
   and the wall time of Train_robust.run up to the last one. *)
let train_phase ~config ~train ~test ~seconds net0 =
  let net = Nn.Io.of_string net0 in
  let records = ref [] and n = ref 0 and t0 = ref 0.0 and t_end = ref 0.0 in
  let on_epoch r net =
    records := { r; net = Nn.Io.to_string net; at = now () } :: !records;
    incr n;
    if !n >= min_records && now () -. !t0 >= seconds then begin
      t_end := now ();
      raise Stop
    end
  in
  (try
     Exp.Train_robust.with_local_service ~workers:2 (fun client ->
         t0 := now ();
         ignore
           (Obs.Trace.with_span "bench.train_robust" (fun () ->
                Exp.Train_robust.run ~client ~on_epoch config net ~train ~test)))
   with Stop -> ());
  (List.rev !records, !t_end -. !t0)

let check ctx records =
  List.iter
    (fun x ->
      let rc = rc x in
      let net = Nn.Io.of_string x.net in
      if rc.Exp.Train_robust.rc_digest <> Nn.Network.digest net then
        fail "%s epoch %d: answer for another digest" name x.r.Exp.Train_robust.epoch;
      if rc.Exp.Train_robust.rc_degraded then
        fail "%s epoch %d: degraded recertification" name x.r.Exp.Train_robust.epoch;
      Array.iter
        (fun (delta, eps) ->
          let cell = { Cells.net = "camera"; lo = 0.0; hi = 1.0; delta } in
          let upper =
            if delta = target_delta && Array.length eps = 1 then
              Some [| x.r.Exp.Train_robust.surrogate |]
            else None
          in
          Oracle.check ~seed:ctx.seed ~what:name ?upper net cell eps)
        rc.Exp.Train_robust.rc_grid)
    records

let target_eps records =
  Array.concat
    (List.filteri (fun i _ -> i < min_records)
       (List.map (fun x -> (rc x).Exp.Train_robust.rc_eps) records))

let run ctx =
  let reps, setup_times =
    List.split
      (List.init setup_reps (fun rep ->
           time (fun () ->
               train_into ctx ~rep
                 [ ("camera", fun id -> (Exp.Models.camera_net ~id ~h ~w ()).Exp.Models.net) ])))
  in
  let digests = check_digests ~workload:name reps in
  let net0 = Nn.Io.to_string (List.hd (List.hd (List.rev reps))).net in
  let train, test, loss = Exp.Train_robust.family_data (Exp.Train_robust.Camera { h; w }) in
  let extra_delta =
    0.001 +. Random.State.float (Random.State.make [| ctx.seed; 5 |]) 0.003
  in
  let config =
    { Exp.Train_robust.default_config with
      Exp.Train_robust.loss; optimizer = Nn.Train.adam ~lr:2e-5 (); epochs = max_int;
      batch_size = 16; lambda = 5e-3; delta = target_delta; lo = 0.0; hi = 1.0;
      grid = [ extra_delta ]; window = 2 }
  in
  let phase ~seconds = train_phase ~config ~train ~test ~seconds net0 in
  (* Traced runs first train untraced through exactly [min_records]
     records: the counting unit and the tracing-overhead reference. *)
  let counting =
    if ctx.trace then begin
      let before = Layers.snapshot () in
      let records, wall = phase ~seconds:0.0 in
      Some (Layers.delta ~before ~after:(Layers.snapshot ()), records, wall)
    end
    else None
  in
  if ctx.trace then Layers.start_tracing ();
  let records, wall = phase ~seconds:ctx.seconds in
  let traced = if ctx.trace then Some (Layers.stop_tracing ()) else None in
  (* --- checks, outside the timed region --- *)
  check ctx records;
  let first = List.hd records in
  (match Array.find_opt (fun (d, _) -> d = extra_delta) (rc first).Exp.Train_robust.rc_grid with
   | Some (_, eps) ->
       let again =
         Cert.Certifier.certify_box (Nn.Io.of_string first.net) ~lo:0.0 ~hi:1.0
           ~delta:extra_delta
       in
       if not (bits_equal again.Cert.Certifier.eps eps) then
         fail "%s: one-shot re-run of epoch 0 differs from the service" name
   | None -> fail "%s: epoch 0 has no delta %g cell" name extra_delta);
  let n = List.length records in
  let cells = List.fold_left (fun a x -> a + (rc x).Exp.Train_robust.rc_cells) 0 records in
  let epoch_s = wall /. float_of_int n in
  let per_layer =
    match (counting, traced) with
    | Some (counts, untraced, wall_u), Some (spans, kernels) ->
        check ctx untraced;
        if not (bits_equal (target_eps untraced) (target_eps records)) then
          fail "%s: traced and untraced training certified different eps" name;
        let rs = Array.of_list records in
        let walls = Array.map (fun x -> (rc x).Exp.Train_robust.rc_wall) rs in
        (* an epoch's wall time minus its recertification *)
        let sgd = Array.init (n - 1) (fun k -> rs.(k + 1).at -. rs.(k).at -. walls.(k + 1)) in
        Layers.print_spans ~workload:name ~wall spans;
        Layers.compute ~counts ~spans ~kernels ~solved:cells
          ~given:
            [ ("epoch_s", epoch_s);
              ("train.sgd_s", mean sgd);
              ("train.recert_s", mean walls);
              ( "recert.cache_hits",
                float_of_int
                  (List.fold_left (fun a x -> a + (rc x).Exp.Train_robust.rc_cache_hits) 0 records) );
              ("setup.train_s", mean_train_s reps);
              ("trace.coverage", Layers.library_self spans /. wall);
              ( "trace.cps_ratio",
                (wall_u /. float_of_int (List.length untraced)) /. epoch_s ) ]
    | _ -> []
  in
  { workload = name;
    digests;
    end_to_end =
      [ m "setup_s" (median (Array.of_list setup_times)) "s";
        m "cells_per_s" (float_of_int cells /. wall) "1/s";
        m "eps_gmean" (gmean (target_eps records)) "output";
        m "peak_rss_mb" (peak_rss_mb ()) "MB" ];
    per_layer;
    extra =
      (if ctx.trace then [] else [ m "epoch_s" epoch_s "s" ])
      @ [ m "epochs" (float_of_int n) "count"; m "extra_delta" extra_delta "delta" ];
    attempted = cells + 1 }
