module Wire = Serve.Wire

type recert = {
  rc_digest : string;
  rc_grid : (float * float array) array;
  rc_eps : float array;
  rc_cells : int;
  rc_cache_hits : int;
  rc_wall : float;
  rc_throughput : float;
  rc_degraded : bool;
}

type epoch_record = {
  epoch : int;
  train_loss : float;
  metric : float;
  accuracy : float;
  surrogate : float;
  recert : recert option;
}

type config = {
  loss : Nn.Train.loss;
  optimizer : Nn.Train.optimizer;
  epochs : int;
  batch_size : int;
  seed : int;
  lambda : float;
  delta : float;
  lo : float;
  hi : float;
  grid : float list;
  window : int;
  acc_tol : float;
}

let default_config =
  let delta = 2.0 /. 255.0 in
  { loss = Nn.Train.Mse; optimizer = Nn.Train.adam ~lr:1e-4 (); epochs = 5;
    batch_size = 32; seed = 7; lambda = 1e-3; delta; lo = 0.0; hi = 1.0;
    grid = [ delta /. 2.0 ]; window = 2; acc_tol = 0.1 }

let accuracy ~loss ~acc_tol net (ds : Data.Dataset.t) =
  match loss with
  | Nn.Train.Softmax_ce ->
      Nn.Train.accuracy net ~xs:ds.Data.Dataset.xs
        ~labels:(Data.Dataset.labels ds)
  | Nn.Train.Mse ->
      let n = Array.length ds.Data.Dataset.xs in
      let ok = ref 0 in
      for i = 0 to n - 1 do
        let pred = Nn.Network.forward net ds.Data.Dataset.xs.(i) in
        if Float.abs (pred.(0) -. ds.Data.Dataset.ys.(i).(0)) <= acc_tol then
          incr ok
      done;
      float_of_int !ok /. float_of_int (max 1 n)

let recertify client ~window ~lo ~hi ~deltas ~target net =
  if Array.length deltas = 0 then invalid_arg "Train_robust.recertify: deltas";
  let digest = Serve.Client.load client (Nn.Io.to_string net) in
  let queries =
    Array.map
      (fun d ->
        { Wire.default_query with
          Wire.q_digest = Some digest; q_delta = d; q_lo = lo; q_hi = hi;
          q_window = window })
      deltas
  in
  let t0 = Unix.gettimeofday () in
  let results, degraded = Serve.Client.certify_batch client queries in
  let wall = Unix.gettimeofday () -. t0 in
  let hits = ref 0 in
  let grid =
    Array.mapi
      (fun i r ->
        match r with
        | Ok r ->
            if r.Wire.r_cached then incr hits;
            if r.Wire.r_digest <> digest then
              failwith "Train_robust.recertify: answer for a stale digest";
            (deltas.(i), r.Wire.r_eps)
        | Error e ->
            failwith
              (Printf.sprintf "Train_robust.recertify: cell %d (delta %g): %s"
                 i deltas.(i) e))
      results
  in
  let rc_eps =
    match Array.find_opt (fun (d, _) -> d = target) grid with
    | Some (_, eps) -> eps
    | None -> snd grid.(Array.length grid - 1)
  in
  let cells = Array.length deltas in
  { rc_digest = digest; rc_grid = grid; rc_eps; rc_cells = cells;
    rc_cache_hits = !hits; rc_wall = wall;
    rc_throughput = (if wall > 0.0 then float_of_int cells /. wall else 0.0);
    rc_degraded = degraded }

let grid_deltas config =
  List.sort_uniq compare (config.delta :: config.grid) |> Array.of_list

let run ?client ?on_epoch config net ~train ~test =
  let xs = train.Data.Dataset.xs and ys = train.Data.Dataset.ys in
  let deltas = grid_deltas config in
  let input = Cert.Bounds.box_domain net ~lo:config.lo ~hi:config.hi in
  let delta = config.delta in
  let eval epoch =
    let train_loss = Nn.Train.mean_loss config.loss net ~xs ~ys in
    let metric =
      Nn.Train.mean_loss config.loss net ~xs:test.Data.Dataset.xs
        ~ys:test.Data.Dataset.ys
    in
    let acc = accuracy ~loss:config.loss ~acc_tol:config.acc_tol net test in
    let surrogate =
      Array.fold_left ( +. ) 0.0
        (Cert.Interval_prop.certify net ~input ~delta)
    in
    let recert =
      Option.map
        (fun c ->
          recertify c ~window:config.window ~lo:config.lo ~hi:config.hi
            ~deltas ~target:delta net)
        client
    in
    let r =
      { epoch; train_loss; metric; accuracy = acc; surrogate; recert }
    in
    (match on_epoch with Some f -> f r net | None -> ());
    r
  in
  (* the penalty enters once per update; pre-scale by the batch size so
     the optimiser's 1/batch leaves an effective weight of exactly
     [lambda] *)
  let penalty ~grads ~batch =
    if config.lambda > 0.0 then
      ignore
        (Cert.Interval_prop.penalty_grad
           ~scale:(config.lambda *. float_of_int batch)
           net ~input ~delta grads)
  in
  let records = ref [ eval 0 ] in
  Nn.Train.fit
    ~log:(fun ~epoch ~loss:_ -> records := eval epoch :: !records)
    ~penalty
    { Nn.Train.loss = config.loss; optimizer = config.optimizer;
      epochs = config.epochs; batch_size = config.batch_size;
      seed = config.seed }
    net ~xs ~ys;
  List.rev !records

let certified_eps r =
  match r.recert with
  | Some rc -> Array.fold_left Float.max 0.0 rc.rc_eps
  | None -> Float.nan

let epoch_line r =
  let base =
    Printf.sprintf "epoch %d: train %.5f test %.5f acc %.3f surrogate %.4g"
      r.epoch r.train_loss r.metric r.accuracy r.surrogate
  in
  match r.recert with
  | None -> base
  | Some rc ->
      Printf.sprintf "%s | eps %.6f cache %d/%d %.2fs (%.1f cells/s)%s" base
        (certified_eps r) rc.rc_cache_hits rc.rc_cells rc.rc_wall
        rc.rc_throughput
        (if rc.rc_degraded then " DEGRADED" else "")

let epoch_json r =
  let module J = Serve.Json in
  let num_int n = J.Num (float_of_int n) in
  let nums a = J.List (Array.to_list (Array.map (fun e -> J.Num e) a)) in
  let rc_fields =
    match r.recert with
    | None -> []
    | Some rc ->
        [ ("digest", J.Str rc.rc_digest);
          ("certified_eps", J.Num (certified_eps r));
          ("eps", nums rc.rc_eps);
          ("grid",
           J.List
             (Array.to_list
                (Array.map
                   (fun (d, eps) ->
                     J.Obj [ ("delta", J.Num d); ("eps", nums eps) ])
                   rc.rc_grid)));
          ("cells", num_int rc.rc_cells);
          ("cache_hits", num_int rc.rc_cache_hits);
          ("wall_s", J.Num rc.rc_wall);
          ("cells_per_s", J.Num rc.rc_throughput);
          ("degraded", J.Bool rc.rc_degraded) ]
  in
  J.Obj
    ([ ("epoch", num_int r.epoch);
       ("train_loss", J.Num r.train_loss);
       ("test_loss", J.Num r.metric);
       ("accuracy", J.Num r.accuracy);
       ("surrogate", J.Num r.surrogate) ]
    @ rc_fields)

type family =
  | Auto_mpg
  | Digits of { image : int }
  | Camera of { h : int; w : int }

(* Same generators, sizes and seeds as the corresponding Models
   trainers, so the splits reproduce a cached model's data exactly. *)
let family_data = function
  | Auto_mpg ->
      let ds = Data.Auto_mpg.generate ~n:400 ~seed:11 () in
      let train, test = Data.Dataset.split ds ~train_fraction:0.8 in
      (train, test, Nn.Train.Mse)
  | Digits { image } ->
      let ds = Data.Digits.generate ~h:image ~w:image ~n:800 ~seed:23 () in
      let train, test = Data.Dataset.split ds ~train_fraction:0.8 in
      (train, test, Nn.Train.Softmax_ce)
  | Camera { h; w } ->
      let ds = Data.Camera.generate ~h ~w ~n:500 ~seed:31 () in
      let train, test = Data.Dataset.split ds ~train_fraction:0.8 in
      (train, test, Nn.Train.Mse)

let with_local_service ?cache_path ?(workers = 2) f =
  let sock = Filename.temp_file "grc-train" ".sock" in
  Sys.remove sock;
  let addr = Serve.Server.Unix_path sock in
  let config =
    { (Serve.Server.default_config addr) with
      Serve.Server.workers; cache_path; handle_signals = false;
      verbose = false }
  in
  let srv = Domain.spawn (fun () -> Serve.Server.run config) in
  let client = Serve.Client.connect_retry addr in
  Fun.protect
    ~finally:(fun () ->
      (try ignore (Serve.Client.rpc client Wire.Shutdown) with _ -> ());
      (try Serve.Client.close client with _ -> ());
      Domain.join srv;
      if Sys.file_exists sock then Sys.remove sock)
    (fun () -> f client)
