type addr = Client.addr =
  | Unix_path of string
  | Tcp of int

type config = {
  addr : addr;
  workers : int;
  queue_cap : int;
  cache_path : string option;
  handle_signals : bool;
  verbose : bool;
  metrics : bool;
}

let default_config addr =
  { addr; workers = 2; queue_cap = 64; cache_path = None;
    handle_signals = true; verbose = false; metrics = false }

(* --- connections ---

   Read side is owned by the event loop; the write side is shared with
   worker domains, so writes take the mutex and the file descriptor is
   closed by whoever observes [alive = false] with no responses still
   owed ([outstanding = 0]) — never earlier, so a worker can never
   write into a recycled descriptor. *)

type conn = {
  conn_id : int;
  fd : Unix.file_descr;
  mutex : Mutex.t;
  carry : Buffer.t;
  mutable alive : bool;
  mutable outstanding : int;   (* queued or running jobs owing a response *)
  mutable closed : bool;
}

let conn_close_locked c =
  if not c.closed then begin
    c.closed <- true;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

(* Send one response frame; failures mark the connection dead. *)
let send c line =
  Mutex.lock c.mutex;
  if c.alive then begin
    try Wire.write_frame c.fd line
    with Unix.Unix_error _ | Sys_error _ ->
      c.alive <- false;
      if c.outstanding = 0 then conn_close_locked c
  end;
  Mutex.unlock c.mutex

let job_done c =
  Mutex.lock c.mutex;
  c.outstanding <- c.outstanding - 1;
  if (not c.alive) && c.outstanding = 0 then conn_close_locked c;
  Mutex.unlock c.mutex

(* --- shared server state --- *)

(* One live batch request: every item job holds its index and this
   shared record; whoever answers the last item also sends the closing
   [Batch_done] frame (and releases the extra outstanding slot the
   summary frame reserved on the connection). *)
type batch_state = {
  bt_items : int;
  bt_remaining : int Atomic.t;
  bt_errors : int Atomic.t;
}

type job = {
  j_conn : conn;
  j_id : int;          (* wire request id, connection-scoped *)
  j_query : Wire.query;
  j_enqueued : float;
  j_batch : (int * batch_state) option;   (* item index within a batch *)
}

type state = {
  cfg : config;
  queue : job Squeue.t;
  cache : Cache.t;
  models : (string, Nn.Network.t) Hashtbl.t;
  models_mutex : Mutex.t;
  shutdown : bool Atomic.t;
  draining : bool Atomic.t;
  workers_done : int Atomic.t;
  (* counters *)
  received : int Atomic.t;
  completed : int Atomic.t;
  served_cached : int Atomic.t;
  errors : int Atomic.t;
  expired_n : int Atomic.t;
  hist_all : Hist.t;       (* enqueue -> response, every certify *)
  hist_hit : Hist.t;       (* cache hits only *)
  hist_solve : Hist.t;     (* actual certifier solve time *)
  started : float;
}

let make_state cfg =
  { cfg;
    queue = Squeue.create ~cap:cfg.queue_cap;
    cache = Cache.create ?path:cfg.cache_path ();
    models = Hashtbl.create 16;
    models_mutex = Mutex.create ();
    shutdown = Atomic.make false;
    draining = Atomic.make false;
    workers_done = Atomic.make 0;
    received = Atomic.make 0;
    completed = Atomic.make 0;
    served_cached = Atomic.make 0;
    errors = Atomic.make 0;
    expired_n = Atomic.make 0;
    hist_all = Hist.create ();
    hist_hit = Hist.create ();
    hist_solve = Hist.create ();
    started = Unix.gettimeofday () }

let log state fmt =
  Printf.ksprintf
    (fun s -> if state.cfg.verbose then Printf.eprintf "grc-serve: %s\n%!" s)
    fmt

let register_model state net =
  let digest = Nn.Network.digest net in
  Mutex.lock state.models_mutex;
  if not (Hashtbl.mem state.models digest) then
    Hashtbl.replace state.models digest net;
  Mutex.unlock state.models_mutex;
  digest

let find_model state digest =
  Mutex.lock state.models_mutex;
  let r = Hashtbl.find_opt state.models digest in
  Mutex.unlock state.models_mutex;
  r

let n_models state =
  Mutex.lock state.models_mutex;
  let n = Hashtbl.length state.models in
  Mutex.unlock state.models_mutex;
  n

(* --- workers --- *)

exception Deadline_exceeded

let certifier_config (q : Wire.query) =
  { Cert.Certifier.default_config with
    Cert.Certifier.window = q.Wire.q_window;
    refine = q.Wire.q_refine }

let resolve_network state (q : Wire.query) =
  match (q.Wire.q_net, q.Wire.q_digest) with
  | Some text, _ ->
      let net = Nn.Io.of_string text in
      Ok (register_model state net, net)
  | None, Some digest -> (
      match find_model state digest with
      | Some net -> Ok (digest, net)
      | None ->
          Error
            (Printf.sprintf
               "unknown digest %s (load the network first, or send it \
                inline)"
               digest))
  | None, None -> Error "certify needs a net or a digest"

let respond_job state job resp =
  (* Count before sending: a client that reads the response and
     immediately asks for [stats] must see this request reflected. *)
  (match resp with
   | Wire.Error _ -> ()
   | _ -> Atomic.incr state.completed);
  (match job.j_batch with
   | None -> send job.j_conn (Wire.encode_response ~id:job.j_id resp)
   | Some (idx, bt) ->
       let bi_resp =
         match resp with
         | Wire.Result r -> Ok r
         | Wire.Error msg ->
             Atomic.incr bt.bt_errors;
             Stdlib.Error msg
         | _ ->
             Atomic.incr bt.bt_errors;
             Stdlib.Error "internal: unexpected batch item response"
       in
       send job.j_conn
         (Wire.encode_response ~id:job.j_id
            (Wire.Batch_item { bi_item = idx; bi_resp }));
       if Atomic.fetch_and_add bt.bt_remaining (-1) = 1 then begin
         (* last item: close the stream; a lone daemon never degrades
            (only the shard router retries across backends) *)
         send job.j_conn
           (Wire.encode_response ~id:job.j_id
              (Wire.Batch_done
                 { bd_items = bt.bt_items;
                   bd_errors = Atomic.get bt.bt_errors;
                   bd_degraded = false }));
         job_done job.j_conn
       end);
  job_done job.j_conn

let handle_job state job =
  Obs.Trace.with_span "serve.request" @@ fun () ->
  let q = job.j_query in
  let deadline =
    Option.map (fun ms -> job.j_enqueued +. (ms /. 1000.0)) q.Wire.q_deadline_ms
  in
  let check_abandon () =
    match deadline with
    | Some d when Unix.gettimeofday () > d -> raise Deadline_exceeded
    | _ -> ()
  in
  try
    check_abandon ();
    match resolve_network state q with
    | Error msg ->
        Atomic.incr state.errors;
        respond_job state job (Wire.Error msg)
    | Ok (digest, net) -> (
        let key = Cache.key ~digest q in
        let finish ~cached eps =
          let dt = Unix.gettimeofday () -. job.j_enqueued in
          Hist.add state.hist_all dt;
          if cached then begin
            Hist.add state.hist_hit dt;
            Atomic.incr state.served_cached
          end;
          respond_job state job
            (Wire.Result
               { Wire.r_eps = eps; r_digest = digest; r_cached = cached;
                 r_time_ms = dt *. 1e3; r_shard = None; r_degraded = false })
        in
        match if q.Wire.q_no_cache then None else Cache.find state.cache key with
        | Some eps -> finish ~cached:true eps
        | None ->
            let solve_hook base req =
              check_abandon ();
              base req
            in
            let t0 = Unix.gettimeofday () in
            let report =
              Cert.Certifier.certify_box
                ~config:(certifier_config q) ~solve_hook
                net ~lo:q.Wire.q_lo ~hi:q.Wire.q_hi ~delta:q.Wire.q_delta
            in
            Hist.add state.hist_solve (Unix.gettimeofday () -. t0);
            Cache.add state.cache key report.Cert.Certifier.eps;
            finish ~cached:false report.Cert.Certifier.eps)
  with
  | Deadline_exceeded ->
      Atomic.incr state.expired_n;
      respond_job state job (Wire.Error "deadline exceeded")
  | Failure msg ->
      Atomic.incr state.errors;
      respond_job state job (Wire.Error msg)
  | e ->
      Atomic.incr state.errors;
      respond_job state job (Wire.Error (Printexc.to_string e))

let worker state =
  let rec loop () =
    match Squeue.pop state.queue with
    | None -> ()
    | Some job ->
        handle_job state job;
        loop ()
  in
  loop ();
  Atomic.incr state.workers_done

(* --- stats --- *)

let stats_json state =
  let i a = Json.Num (float_of_int (Atomic.get a)) in
  let cc = Cache.counters state.cache in
  let lookups = cc.Cache.hits + cc.Cache.misses in
  Json.Obj
    ([ ("uptime_s", Json.Num (Unix.gettimeofday () -. state.started));
      ("queue_depth", Json.Num (float_of_int (Squeue.length state.queue)));
      ("queue_cap", Json.Num (float_of_int state.cfg.queue_cap));
      ("workers", Json.Num (float_of_int state.cfg.workers));
      ("draining", Json.Bool (Atomic.get state.draining));
      ("models", Json.Num (float_of_int (n_models state)));
      ("requests",
       Json.Obj
         [ ("received", i state.received);
           ("completed", i state.completed);
           ("served_cached", i state.served_cached);
           ("errors", i state.errors);
           ("deadline_expired", i state.expired_n) ]);
      ("cache",
       Json.Obj
         [ ("hits", Json.Num (float_of_int cc.Cache.hits));
           ("misses", Json.Num (float_of_int cc.Cache.misses));
           ("hit_rate",
            Json.Num
              (if lookups = 0 then 0.0
               else float_of_int cc.Cache.hits /. float_of_int lookups));
           ("entries", Json.Num (float_of_int cc.Cache.entries));
           ("loaded_from_disk", Json.Num (float_of_int cc.Cache.loaded)) ]);
      ("latency",
       Json.Obj
         [ ("all", Hist.to_json state.hist_all);
           ("cache_hit", Hist.to_json state.hist_hit);
           ("solve", Hist.to_json state.hist_solve) ]) ]
     @
     (* [--metrics]: the process-wide Obs registry, flattened — the
        daemon's only record of solver work (queries, pivots, phase
        runs, warm/cold splits) *)
     (if state.cfg.metrics then
        [ ("metrics",
           Json.Obj
             (List.map (fun (k, v) -> (k, Json.Num v)) (Obs.Metrics.dump ())))
        ]
      else []))

(* --- the event loop --- *)

let handle_frame state (c : conn) line =
  let id, req = Wire.decode_request (Json.of_string line) in
  match req with
  | Wire.Certify q ->
      Atomic.incr state.received;
      if Atomic.get state.draining then
        send c (Wire.encode_response ~id (Wire.Error "server is draining"))
      else begin
        Mutex.lock c.mutex;
        c.outstanding <- c.outstanding + 1;
        Mutex.unlock c.mutex;
        let job =
          { j_conn = c; j_id = id; j_query = q;
            j_enqueued = Unix.gettimeofday (); j_batch = None }
        in
        match Squeue.try_push state.queue job with
        | `Ok -> ()
        | `Full ->
            Atomic.incr state.errors;
            respond_job state job (Wire.Error "queue full")
        | `Closed ->
            Atomic.incr state.errors;
            respond_job state job (Wire.Error "server is draining")
      end
  | Wire.Batch items ->
      let n = List.length items in
      ignore (Atomic.fetch_and_add state.received n);
      if Atomic.get state.draining then
        send c (Wire.encode_response ~id (Wire.Error "server is draining"))
      else if n = 0 then
        send c
          (Wire.encode_response ~id
             (Wire.Batch_done
                { bd_items = 0; bd_errors = 0; bd_degraded = false }))
      else begin
        (* n item frames plus the closing summary frame *)
        Mutex.lock c.mutex;
        c.outstanding <- c.outstanding + n + 1;
        Mutex.unlock c.mutex;
        let bt =
          { bt_items = n; bt_remaining = Atomic.make n;
            bt_errors = Atomic.make 0 }
        in
        let now = Unix.gettimeofday () in
        List.iteri
          (fun idx q ->
            let job =
              { j_conn = c; j_id = id; j_query = q; j_enqueued = now;
                j_batch = Some (idx, bt) }
            in
            match Squeue.try_push state.queue job with
            | `Ok -> ()
            | `Full ->
                Atomic.incr state.errors;
                respond_job state job (Wire.Error "queue full")
            | `Closed ->
                Atomic.incr state.errors;
                respond_job state job (Wire.Error "server is draining"))
          items
      end
  | Wire.Load text -> (
      match Nn.Io.of_string text with
      | net ->
          let digest = register_model state net in
          log state "loaded %s (%d params)" digest
            (Nn.Network.param_count net);
          send c
            (Wire.encode_response ~id
               (Wire.Loaded
                  { digest; params = Nn.Network.param_count net;
                    layers = Nn.Network.n_layers net }))
      | exception Failure msg ->
          Atomic.incr state.errors;
          send c (Wire.encode_response ~id (Wire.Error msg)))
  | Wire.Stats ->
      send c (Wire.encode_response ~id (Wire.Stats_payload (stats_json state)))
  | Wire.Ping -> send c (Wire.encode_response ~id Wire.Ack)
  | Wire.Shutdown ->
      log state "shutdown requested";
      send c (Wire.encode_response ~id Wire.Ack);
      Atomic.set state.shutdown true

let listen_socket addr =
  let fd = Unix.socket (Client.domain addr) Unix.SOCK_STREAM 0 in
  (match addr with
   | Unix_path path -> (try Unix.unlink path with Unix.Unix_error _ -> ())
   | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true);
  (try Unix.bind fd (Client.sockaddr addr)
   with Unix.Unix_error (e, _, _) ->
     Unix.close fd;
     failwith
       (Printf.sprintf "grc serve: cannot bind %s: %s" (Client.addr_str addr)
          (Unix.error_message e)));
  Unix.listen fd 64;
  fd

let run cfg =
  if cfg.workers < 1 then failwith "grc serve: need at least one worker";
  let state = make_state cfg in
  if cfg.handle_signals then begin
    let drain _ = Atomic.set state.shutdown true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle drain);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle drain)
  end;
  (* a dead client must never kill the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let listener = listen_socket cfg.addr in
  let workers = List.init cfg.workers (fun _ -> Domain.spawn (fun () -> worker state)) in
  log state "listening (%d workers, queue %d)" cfg.workers cfg.queue_cap;
  let conns = ref [] in
  let next_conn_id = ref 0 in
  let listener_open = ref true in
  let drop_conn c =
    Mutex.lock c.mutex;
    c.alive <- false;
    if c.outstanding = 0 then conn_close_locked c;
    Mutex.unlock c.mutex;
    conns := List.filter (fun c' -> c'.conn_id <> c.conn_id) !conns
  in
  let start_drain () =
    if not (Atomic.get state.draining) then begin
      Atomic.set state.draining true;
      log state "draining: %d queued" (Squeue.length state.queue);
      if !listener_open then begin
        listener_open := false;
        (try Unix.close listener with Unix.Unix_error _ -> ())
      end;
      Squeue.close state.queue
    end
  in
  let finished () =
    Atomic.get state.draining
    && Atomic.get state.workers_done = cfg.workers
  in
  while not (finished ()) do
    if Atomic.get state.shutdown then start_drain ();
    (* a worker marks a connection dead when a response write fails;
       stop selecting on it (its fd may already be closed) *)
    conns := List.filter (fun c -> c.alive) !conns;
    let read_fds =
      (if !listener_open then [ listener ] else [])
      @ List.map (fun c -> c.fd) !conns
    in
    match Unix.select read_fds [] [] 0.2 with
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EBADF), _, _) -> ()
    | ready, _, _ ->
        List.iter
          (fun fd ->
            if !listener_open && fd = listener then begin
              match Unix.accept listener with
              | cfd, _ ->
                  incr next_conn_id;
                  let c =
                    { conn_id = !next_conn_id; fd = cfd;
                      mutex = Mutex.create (); carry = Buffer.create 4096;
                      alive = true; outstanding = 0; closed = false }
                  in
                  conns := c :: !conns;
                  log state "conn %d accepted" c.conn_id
              | exception Unix.Unix_error _ -> ()
            end
            else
              match List.find_opt (fun c -> c.fd = fd && c.alive) !conns with
              | None -> ()
              | Some c -> (
                  match Wire.read_lines c.carry c.fd with
                  | None ->
                      log state "conn %d closed" c.conn_id;
                      drop_conn c
                  | Some lines ->
                      List.iter
                        (fun line ->
                          if String.trim line <> "" then
                            try handle_frame state c line
                            with Failure msg ->
                              Atomic.incr state.errors;
                              send c
                                (Wire.encode_response ~id:0 (Wire.Error msg)))
                        lines))
          ready
  done;
  List.iter Domain.join workers;
  List.iter (fun c -> drop_conn c) !conns;
  if !listener_open then (try Unix.close listener with Unix.Unix_error _ -> ());
  (match cfg.addr with
   | Unix_path path -> (try Unix.unlink path with Unix.Unix_error _ -> ())
   | Tcp _ -> ());
  Cache.close state.cache;
  log state "stopped"
