(* serve-mixed: one certification daemon (Serve.Server.default_config:
   two workers, in-memory result cache) in a child process, driven by two
   closed-loop clients on two connections from two domains.

   - hot repeats eight pre-answered dnn2 cells, all cache hits;
   - cold sends fresh dnn3 cells: the panel, then rounds of twenty
     single requests and one batch of sixteen, until the time is up.

   The daemon is forked before this process starts any domain, and runs
   in its own process so that its latencies do not include this
   process's garbage collections (OCaml 5 collects all domains of a
   process together). *)

open Common
module W = Serve.Wire
module C = Serve.Client
module J = Serve.Json

let name = "serve-mixed"

let nets =
  [ ("dnn2", fun id -> (Exp.Models.auto_mpg_net ~id ~sizes:(8, 4) ()).Exp.Models.net);
    ("dnn3", fun id -> (Exp.Models.auto_mpg_net ~id ~sizes:(8, 8) ()).Exp.Models.net) ]

let hot_cells = 8
let singles_per_round = 20
let batch_size = 16
let checked_seeded = 8  (* seeded misses re-certified one-shot *)
let setup_reps = 5

(* The daemon's memory grows with the cells it has certified, so its
   peak is read after a fixed number of cold rounds, not at the end of
   a run whose length in rounds depends on the machine's speed. *)
let rss_rounds = 4

(* ---- the daemon process ---- *)

type daemon = { pid : int; addr : Serve.Server.addr; report : string }

let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

(* The child serves until shutdown, then, when traced, writes its folded
   spans and kernel times to [report]. *)
let start ctx ~tag ~trace =
  let addr = Serve.Server.Unix_path (Filename.concat ctx.tmp (tag ^ ".sock")) in
  let report = Filename.concat ctx.tmp (tag ^ ".json") in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      let code =
        try
          if trace then Layers.start_tracing ();
          Serve.Server.run
            { (Serve.Server.default_config addr) with Serve.Server.metrics = true };
          let spans, (ftran, btran) =
            if trace then Layers.stop_tracing () else (Hashtbl.create 1, (0.0, 0.0))
          in
          Out_channel.with_open_text report (fun oc ->
              output_string oc
                (J.to_string
                   (J.Obj
                      [ ("spans", Layers.spans_to_json spans);
                        ("ftran_s", J.Num ftran); ("btran_s", J.Num btran) ])));
          0
        with e ->
          Printf.eprintf "perf: daemon %s: %s\n%!" tag (Printexc.to_string e);
          2
      in
      Unix._exit code
  | pid ->
      live := pid :: !live;
      { pid; addr; report }

let connect_ready d =
  let deadline = now () +. 10.0 in
  let rec go () =
    match C.connect d.addr with
    | c -> c
    | exception Failure _ when now () < deadline ->
        Unix.sleepf 0.002;
        go ()
  in
  let c = go () in
  (match C.rpc c W.Ping with W.Ack -> () | _ -> failwith "daemon ping");
  c

let stop d =
  (match C.connect d.addr with
   | c ->
       (try ignore (C.rpc c W.Shutdown) with Failure _ -> ());
       C.close c
   | exception Failure _ -> ());
  let _, status = Unix.waitpid [] d.pid in
  live := List.filter (( <> ) d.pid) !live;
  if status <> Unix.WEXITED 0 then begin
    fail "%s: daemon did not exit cleanly" name;
    J.Obj []
  end
  else J.of_string (In_channel.with_open_text d.report In_channel.input_all)

let query digests (c : Cells.t) =
  { W.default_query with
    W.q_digest = Some (List.assoc c.Cells.net digests);
    q_delta = c.Cells.delta; q_lo = c.Cells.lo; q_hi = c.Cells.hi }

(* Start a daemon, load the nets and answer the hot cells once, so that
   every hot request after this is a cache hit. *)
let bring_up ctx ~tag ~trace trained hot =
  let d = start ctx ~tag ~trace in
  let c = connect_ready d in
  let digests =
    List.map
      (fun t ->
        let dg = C.load c (Nn.Io.to_string t.net) in
        if dg <> Nn.Network.digest t.net then
          fail "%s: daemon digest of %s differs" name t.id;
        (t.id, dg))
      trained
  in
  let answers = Array.map (fun cell -> (C.certify c (query digests cell)).W.r_eps) hot in
  C.close c;
  (d, digests, answers)

(* ---- one measured phase ---- *)

type phase = {
  wall : float;
  rounds : float array;
  hit_rtt : float array;       (* seconds, client round trip *)
  hit_handle : float array;    (* seconds, daemon enqueue -> response *)
  miss_rtt : float array;      (* single cold requests *)
  miss_handle : float array;
  item_handle : float array;   (* batch items *)
  singles : int;
  batches : int;
  panel_eps : float array array;
  checked : (Cells.t * float array) list;  (* panel + first seeded singles *)
  counts : Layers.counts;      (* daemon counters over the panel singles *)
  stats : J.t;
  peak_rss_mb : float;         (* the daemon's, after [rss_rounds] rounds *)
}

let stats c =
  match C.rpc c W.Stats with
  | W.Stats_payload j -> j
  | _ -> failwith "daemon stats"

let metrics_of j =
  match J.member "metrics" j with
  | Some (J.Obj kvs) -> List.filter_map (fun (k, v) -> Option.map (fun x -> (k, x)) (J.to_num v)) kvs
  | _ -> []

let num path j =
  let rec go j = function
    | [] -> J.to_num j
    | k :: rest -> Option.bind (J.member k j) (fun j -> go j rest)
  in
  Option.value ~default:0.0 (go j path)

let hot_loop d ~digests ~hot ~answers stop =
  let c = C.connect d.addr in
  let rtt = Samples.create () and handle = Samples.create () and bad = ref 0 in
  let queries = Array.map (query digests) hot in
  let i = ref 0 in
  while not (Atomic.get stop) do
    let k = !i mod Array.length hot in
    let t0 = now () in
    (match Obs.Trace.with_span "bench.client.certify" (fun () -> C.certify c queries.(k)) with
     | r ->
         Samples.add rtt (now () -. t0);
         Samples.add handle (r.W.r_time_ms /. 1000.0);
         if not (r.W.r_cached && bits_equal r.W.r_eps answers.(k)) then incr bad
     | exception _ -> incr bad);
    incr i
  done;
  C.close c;
  (Samples.to_array rtt, Samples.to_array handle, !bad)

(* The cold client's part of a phase; [phase] fills in the rest. *)
let cold_loop d ~digests ~panel ~fresh ~deadline =
  let c = C.connect d.addr in
  let miss_rtt = Samples.create () and miss_handle = Samples.create ()
  and item_handle = Samples.create () and rounds = Samples.create () in
  let singles = ref 0 and batches = ref 0 and checked = ref [] in
  let solved () = !singles + item_handle.Samples.n in
  let daemon_rss () = peak_rss_mb ~pid:(string_of_int d.pid) () in
  let rss = ref None in
  let single cell =
    let q = query digests cell in
    let t0 = now () in
    let r = Obs.Trace.with_span "bench.client.certify" (fun () -> C.certify c q) in
    Samples.add miss_rtt (now () -. t0);
    Samples.add miss_handle (r.W.r_time_ms /. 1000.0);
    if r.W.r_cached then fail "%s %s: fresh cell answered from the cache" name (Cells.label cell);
    incr singles;
    r.W.r_eps
  in
  let before = metrics_of (stats c) in
  let panel_eps = Array.map single panel in
  let counts = Layers.delta ~before ~after:(metrics_of (stats c)) in
  checked := List.rev (List.combine (Array.to_list panel) (Array.to_list panel_eps));
  while now () < deadline do
    let t_round = now () and n_round = solved () in
    for _ = 1 to singles_per_round do
      if now () < deadline then begin
        let cell = fresh () in
        let eps = single cell in
        if List.length !checked < Array.length panel + checked_seeded then
          checked := (cell, eps) :: !checked
      end
    done;
    if now () < deadline then begin
      let cells = Cells.take batch_size fresh in
      let results, degraded =
        Obs.Trace.with_span "bench.client.batch" (fun () ->
            C.certify_batch c (Array.map (query digests) cells))
      in
      incr batches;
      if degraded then fail "%s: batch answered degraded" name;
      Array.iteri
        (fun i -> function
          | Ok r ->
              Samples.add item_handle (r.W.r_time_ms /. 1000.0);
              if r.W.r_cached then
                fail "%s %s: fresh cell answered from the cache" name
                  (Cells.label cells.(i))
          | Error e -> fail "%s %s: %s" name (Cells.label cells.(i)) e)
        results;
      Samples.add rounds (float_of_int (solved () - n_round) /. (now () -. t_round));
      if rounds.Samples.n = rss_rounds then rss := Some (daemon_rss ())
    end
  done;
  let stats = stats c in
  C.close c;
  let peak_rss_mb = match !rss with Some x -> x | None -> daemon_rss () in
  { wall = 0.0; rounds = Samples.to_array rounds; hit_rtt = [||]; hit_handle = [||];
    miss_rtt = Samples.to_array miss_rtt; miss_handle = Samples.to_array miss_handle;
    item_handle = Samples.to_array item_handle; singles = !singles; batches = !batches;
    panel_eps; checked = List.rev !checked; counts; stats; peak_rss_mb }

let phase d ~digests ~hot ~answers ~panel ~fresh ~seconds =
  let stop = Atomic.make false in
  let t0 = now () in
  let hot_dom = Domain.spawn (fun () -> hot_loop d ~digests ~hot ~answers stop) in
  let cold =
    match cold_loop d ~digests ~panel ~fresh ~deadline:(t0 +. seconds) with
    | r -> Ok r
    | exception e -> Error e
  in
  Atomic.set stop true;
  let hit_rtt, hit_handle, bad = Domain.join hot_dom in
  let wall = now () -. t0 in
  for _ = 1 to bad do
    fail "%s: hot request failed or differed from its first answer" name
  done;
  match cold with
  | Error e -> raise e
  | Ok p -> { p with wall; hit_rtt; hit_handle }

let answered p = Array.length p.hit_rtt + p.singles + Array.length p.item_handle
let solved p = p.singles + Array.length p.item_handle

(* Fresh cells the daemon certified per second, the median over the
   cold client's rounds: the hot client's share of the two cores swings
   from round to round with thread placement, and cache hits are not
   certifications (requests_per_s counts them). *)
let cells_per_s p =
  if Array.length p.rounds > 0 then median p.rounds
  else float_of_int (solved p) /. p.wall

let client_metrics p =
  let ms x = 1000.0 *. x in
  let solve_mean_ms = num [ "latency"; "solve"; "mean_ms" ] p.stats in
  [ ("requests_per_s",
     float_of_int (Array.length p.hit_rtt + p.singles + p.batches) /. p.wall);
    ("hit_p50_ms", ms (percentile p.hit_rtt 0.5));
    ("hit_p99_ms", ms (percentile p.hit_rtt 0.99));
    ("hit_samples", float_of_int (Array.length p.hit_rtt));
    ("miss_p50_ms", ms (percentile p.miss_rtt 0.5));
    ("miss_p95_ms", ms (percentile p.miss_rtt 0.95));
    ("miss_samples", float_of_int (Array.length p.miss_rtt));
    ("serve.hit_handle_ms", ms (percentile p.hit_handle 0.5));
    ("serve.miss_handle_ms", ms (percentile p.miss_handle 0.5));
    ("serve.transport_ms",
     ms (percentile (Array.map2 ( -. ) p.hit_rtt p.hit_handle) 0.5));
    ("serve.solve_mean_ms", solve_mean_ms);
    ("serve.queue_wait_ms",
     ms (mean (Array.append p.miss_handle p.item_handle)) -. solve_mean_ms);
    ("cache.hit_ratio", num [ "cache"; "hit_rate" ] p.stats);
    ("serve.errors", num [ "requests"; "errors" ] p.stats) ]

let unit_of name =
  let _, u, _ = List.find (fun (n, _, _) -> n = name) Layers.metrics in
  u

let run ctx =
  let hot = Cells.take hot_cells (Cells.seeded ~seed:ctx.seed ~salt:4 [ "dnn2" ]) in
  let panel =
    Cells.panel
      [ (0.25, 0.75, 0.002); (0.0, 1.0, 0.003); (0.125, 0.875, 0.0015);
        (0.5, 1.0, 0.004); (0.0, 0.75, 0.001); (0.0, 1.0, 0.0025) ]
      [ "dnn3" ]
  in
  let fresh = Cells.seeded ~seed:ctx.seed ~salt:3 [ "dnn3" ] in
  let reps =
    List.init setup_reps (fun rep ->
        let (trained, up), dt =
          time (fun () ->
              let trained = train_into ctx ~rep nets in
              (trained, bring_up ctx ~tag:(Printf.sprintf "daemon%d" rep) ~trace:false trained hot))
        in
        if rep < setup_reps - 1 then ignore (stop (let d, _, _ = up in d));
        (trained, up, dt))
  in
  let trained_reps = List.map (fun (t, _, _) -> t) reps in
  let digests_out = check_digests ~workload:name trained_reps in
  let trained, (d, digests, answers), _ = List.nth reps (setup_reps - 1) in
  let setup_s = median (Array.of_list (List.map (fun (_, _, dt) -> dt) reps)) in
  let traced_daemon =
    if ctx.trace then Some (bring_up ctx ~tag:"traced" ~trace:true trained hot) else None
  in
  let seconds = if ctx.trace then ctx.seconds /. 2.0 else ctx.seconds in
  let a = phase d ~digests ~hot ~answers ~panel ~fresh ~seconds in
  let b =
    Option.map
      (fun (db, digests_b, answers_b) ->
        if not (Array.for_all2 bits_equal answers answers_b) then
          fail "%s: traced daemon answered the hot cells differently" name;
        Layers.start_tracing ();
        let p = phase db ~digests:digests_b ~hot ~answers:answers_b ~panel ~fresh ~seconds in
        let bench_spans, _ = Layers.stop_tracing () in
        (db, p, bench_spans))
      traced_daemon
  in
  ignore (stop d);
  (* --- checks, outside the timed region --- *)
  let net_of id = (List.find (fun t -> t.id = id) trained).net in
  let one_shot (c : Cells.t) =
    (Cert.Certifier.certify_box (net_of c.Cells.net) ~lo:c.Cells.lo ~hi:c.Cells.hi
       ~delta:c.Cells.delta).Cert.Certifier.eps
  in
  Array.iteri
    (fun i c -> Oracle.check ~seed:ctx.seed ~what:name (net_of c.Cells.net) c answers.(i))
    hot;
  if not (bits_equal (one_shot hot.(0)) answers.(0)) then
    fail "%s %s: re-run differs from the daemon's answer" name (Cells.label hot.(0));
  List.iter
    (fun (c, eps) ->
      if not (bits_equal (one_shot c) eps) then
        fail "%s %s: daemon and one-shot eps differ" name (Cells.label c);
      Oracle.check ~seed:ctx.seed ~what:name (net_of c.Cells.net) c eps)
    a.checked;
  let attempted = answered a + 1 + Option.fold ~none:0 ~some:(fun (_, p, _) -> answered p) b in
  let per_layer =
    match b with
    | None -> []
    | Some (db, pb, bench_spans) ->
        if not (Array.for_all2 bits_equal a.panel_eps pb.panel_eps) then
          fail "%s: traced daemon certified the panel differently" name;
        let report = stop db in
        let spans = Layers.spans_of_json (Option.value ~default:(J.Obj []) (J.member "spans" report)) in
        let kernels = (num [ "ftran_s" ] report, num [ "btran_s" ] report) in
        Layers.print_spans ~workload:(name ^ " client") ~wall:pb.wall bench_spans;
        Layers.print_spans ~workload:(name ^ " daemon") ~wall:pb.wall spans;
        let requests = float_of_int (answered pb) in
        Layers.compute ~counts:a.counts ~spans ~kernels ~solved:(solved pb)
          ~given:
            (client_metrics a
            @ [ ("serve.self_s", Layers.self_of spans [ "serve.request" ] /. requests);
                ("setup.train_s", mean_train_s trained_reps);
                ("trace.coverage", Layers.library_self spans /. pb.wall);
                ("trace.cps_ratio", cells_per_s pb /. cells_per_s a) ])
  in
  { workload = name;
    digests = digests_out;
    end_to_end =
      [ m "setup_s" setup_s "s";
        m "cells_per_s" (cells_per_s a) "1/s";
        m "eps_gmean" (gmean (Array.concat (Array.to_list a.panel_eps))) "output";
        m "peak_rss_mb" a.peak_rss_mb "MB" ];
    per_layer;
    extra =
      (if ctx.trace then []
       else List.map (fun (k, v) -> m k v (unit_of k)) (client_metrics a))
      @ [ m "rounds" (float_of_int (Array.length a.rounds)) "count" ];
    attempted }
