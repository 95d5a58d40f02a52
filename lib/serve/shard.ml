type config = {
  addr : Server.addr;
  backends : Server.addr list;
  handle_signals : bool;
  verbose : bool;
  connect_timeout_s : float;
}

let default_config addr ~backends =
  { addr; backends; handle_signals = true; verbose = false;
    connect_timeout_s = 10.0 }

(* Routing is a pure function of (digest, salt, shard count) so clients
   and tests can predict placement: repeated identical sweeps land the
   same cells on the same shards and hit their caches.  The salt is 0
   for single queries (pure digest affinity) and the item index for
   batch items, so a one-network sweep still fans out across shards. *)
let route_index ~digest ~salt ~shards =
  if shards <= 0 then
    invalid_arg "Serve.Shard.route_index: shards must be positive";
  (((Hashtbl.hash digest + salt) mod shards) + shards) mod shards

(* --- client connections (router side) --- *)

type cconn = {
  cc_id : int;
  cc_fd : Unix.file_descr;
  cc_carry : Buffer.t;
  mutable cc_alive : bool;
}

(* --- in-flight bookkeeping ---

   Every request forwarded to a backend is registered in that backend's
   pending table under the backend-scoped id, carrying enough to either
   answer the client or re-dispatch the work if the backend dies. *)

type batch = {
  bt_conn : cconn;
  bt_cid : int;                 (* the client's request id *)
  bt_items : int;
  mutable bt_remaining : int;
  mutable bt_errors : int;
  mutable bt_degraded : bool;   (* some item was retried after a death *)
}

type fan_kind = F_load | F_stats | F_shutdown

type fan = {
  f_kind : fan_kind;
  mutable f_waiting : int;
  mutable f_acc : (int * Wire.response) list;   (* (shard idx, answer) *)
}

type kind =
  | K_single of Wire.query * int          (* query, attempts so far *)
  | K_item of batch * int * Wire.query * int  (* batch, tag, query, attempts *)
  | K_fan of fan

type pending = {
  p_conn : cconn;
  p_cid : int;
  p_kind : kind;
  p_sent : float;
}

type backend = {
  b_idx : int;
  b_addr : Server.addr;
  mutable b_fd : Unix.file_descr option;  (* None once dead; never revived *)
  b_carry : Buffer.t;
  mutable b_next_id : int;
  b_pending : (int, pending) Hashtbl.t;
  b_hist : Hist.t;                        (* router-side request latency *)
  mutable b_routed : int;
  mutable b_retried_onto : int;
}

type state = {
  cfg : config;
  backends : backend array;
  digest_memo : (string, string) Hashtbl.t;   (* net text -> digest *)
  mutable stop : bool;
  started : float;
  mutable received : int;
  mutable routed : int;
  mutable retried : int;
  mutable deaths : int;
}

let log st fmt =
  Printf.ksprintf
    (fun s -> if st.cfg.verbose then Printf.eprintf "grc-shard: %s\n%!" s)
    fmt

let m_routed = Obs.Metrics.counter "shard.routed"
let m_retried = Obs.Metrics.counter "shard.retried"
let m_deaths = Obs.Metrics.counter "shard.deaths"

let set_inflight b =
  Obs.Metrics.set
    (Obs.Metrics.gauge_family "shard.inflight" b.b_idx)
    (float_of_int (Hashtbl.length b.b_pending))

(* --- client side writes --- *)

let client_send (c : cconn) line =
  if c.cc_alive then
    try Wire.write_frame c.cc_fd line
    with Unix.Unix_error _ | Sys_error _ -> c.cc_alive <- false

let reply p resp = client_send p.p_conn (Wire.encode_response ~id:p.p_cid resp)

let batch_done bt =
  client_send bt.bt_conn
    (Wire.encode_response ~id:bt.bt_cid
       (Wire.Batch_done
          { bd_items = bt.bt_items; bd_errors = bt.bt_errors;
            bd_degraded = bt.bt_degraded }))

let batch_item bt idx bi_resp =
  (match bi_resp with Stdlib.Error _ -> bt.bt_errors <- bt.bt_errors + 1
                    | Ok _ -> ());
  client_send bt.bt_conn
    (Wire.encode_response ~id:bt.bt_cid
       (Wire.Batch_item { bi_item = idx; bi_resp }));
  bt.bt_remaining <- bt.bt_remaining - 1;
  if bt.bt_remaining = 0 then batch_done bt

(* --- routing --- *)

let routing_key st (q : Wire.query) =
  match q.Wire.q_digest with
  | Some d -> d
  | None -> (
      match q.Wire.q_net with
      | None -> ""   (* the backend rejects it with a proper error *)
      | Some text -> (
          match Hashtbl.find_opt st.digest_memo text with
          | Some d -> d
          | None ->
              let d =
                match Nn.Io.of_string text with
                | net -> Nn.Network.digest net
                | exception _ -> text   (* still a deterministic key *)
              in
              Hashtbl.replace st.digest_memo text d;
              d))

let pick st ~key ~salt ~attempt =
  let n = Array.length st.backends in
  let start = route_index ~digest:key ~salt:(salt + attempt) ~shards:n in
  let rec go k =
    if k = n then None
    else
      let b = st.backends.((start + k) mod n) in
      if b.b_fd <> None then Some b else go (k + 1)
  in
  go 0

(* Forward one request to [b], registering the pending entry first so a
   write failure (handled by [kill_backend]) re-dispatches it like any
   other in-flight loss. *)
let rec backend_send st b p req =
  match b.b_fd with
  | None -> kill_backend st b   (* caller checked; raced with a death *)
  | Some fd ->
      let bid = b.b_next_id in
      b.b_next_id <- bid + 1;
      Hashtbl.replace b.b_pending bid p;
      set_inflight b;
      (match Wire.write_frame fd (Wire.encode_request ~id:bid req) with
       | () -> ()
       | exception (Unix.Unix_error _ | Sys_error _) ->
           log st "write to shard %d failed" b.b_idx;
           kill_backend st b)

(* A dead backend's in-flight work is snapshotted, its table reset (so
   nested deaths during re-dispatch see a clean slate), and every entry
   rerouted to the next live shard — or answered with an error when no
   shard is left or the query already visited every backend. *)
and kill_backend st b =
  match b.b_fd with
  | None -> ()
  | Some fd ->
      b.b_fd <- None;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if not st.stop then begin
        st.deaths <- st.deaths + 1;
        Obs.Metrics.add m_deaths 1
      end;
      let orphans = Hashtbl.fold (fun _ p acc -> p :: acc) b.b_pending [] in
      Hashtbl.reset b.b_pending;
      set_inflight b;
      log st "shard %d died with %d in flight" b.b_idx (List.length orphans);
      List.iter (reroute st) orphans

and reroute st p =
  match p.p_kind with
  | K_fan f ->
      f.f_waiting <- f.f_waiting - 1;
      if f.f_waiting = 0 then finish_fan st p f
  | K_single (q, attempts) ->
      retry st p q ~salt:0 ~attempts
        ~ok:(fun b attempts ->
          backend_send st b
            { p with p_kind = K_single (q, attempts);
                     p_sent = Unix.gettimeofday () }
            (Wire.Certify q))
        ~fail:(fun msg -> reply p (Wire.Error msg))
  | K_item (bt, idx, q, attempts) ->
      bt.bt_degraded <- true;
      retry st p q ~salt:idx ~attempts
        ~ok:(fun b attempts ->
          backend_send st b
            { p with p_kind = K_item (bt, idx, q, attempts);
                     p_sent = Unix.gettimeofday () }
            (Wire.Certify q))
        ~fail:(fun msg -> batch_item bt idx (Stdlib.Error msg))

and retry st _p q ~salt ~attempts ~ok ~fail =
  let attempts = attempts + 1 in
  if attempts >= Array.length st.backends + 1 then
    fail "no live shard can answer (all retries exhausted)"
  else
    match pick st ~key:(routing_key st q) ~salt ~attempt:attempts with
    | None -> fail "no live shard"
    | Some b ->
        st.retried <- st.retried + 1;
        Obs.Metrics.add m_retried 1;
        b.b_retried_onto <- b.b_retried_onto + 1;
        Obs.Metrics.add
          (Obs.Metrics.counter_family "shard.retried_onto" b.b_idx) 1;
        ok b attempts

(* --- fan-out requests (load / stats / shutdown) --- *)

and live st =
  Array.to_list st.backends |> List.filter (fun b -> b.b_fd <> None)

and router_stats st =
  let n = Array.length st.backends in
  Json.Obj
    [ ("role", Json.Str "router");
      ("uptime_s", Json.Num (Unix.gettimeofday () -. st.started));
      ("shards", Json.Num (float_of_int n));
      ("live", Json.Num (float_of_int (List.length (live st))));
      ("draining", Json.Bool st.stop);
      ("requests",
       Json.Obj
         [ ("received", Json.Num (float_of_int st.received));
           ("routed", Json.Num (float_of_int st.routed));
           ("retried", Json.Num (float_of_int st.retried));
           ("backend_deaths", Json.Num (float_of_int st.deaths)) ]);
      ("per_shard",
       Json.List
         (Array.to_list st.backends
          |> List.map (fun b ->
                 Json.Obj
                   [ ("shard", Json.Num (float_of_int b.b_idx));
                     ("addr", Json.Str (Client.addr_str b.b_addr));
                     ("live", Json.Bool (b.b_fd <> None));
                     ("inflight",
                      Json.Num (float_of_int (Hashtbl.length b.b_pending)));
                     ("routed", Json.Num (float_of_int b.b_routed));
                     ("retried_onto",
                      Json.Num (float_of_int b.b_retried_onto));
                     ("latency", Hist.to_json b.b_hist) ]))) ]

and finish_fan st p f =
  match f.f_kind with
  | F_load -> (
      let by_idx = List.sort (fun (a, _) (b, _) -> compare a b) f.f_acc in
      match
        List.find_map
          (function _, (Wire.Loaded _ as r) -> Some r | _ -> None)
          by_idx
      with
      | Some r -> reply p r
      | None -> (
          match
            List.find_map
              (function _, (Wire.Error _ as r) -> Some r | _ -> None)
              by_idx
          with
          | Some r -> reply p r
          | None -> reply p (Wire.Error "load failed on every shard")))
  | F_shutdown ->
      reply p Wire.Ack;
      st.stop <- true
  | F_stats ->
      let answers =
        Array.make (Array.length st.backends)
          (Json.Obj [ ("error", Json.Str "shard down") ])
      in
      List.iter
        (fun (idx, resp) ->
          answers.(idx) <-
            (match resp with
             | Wire.Stats_payload j -> j
             | Wire.Error msg -> Json.Obj [ ("error", Json.Str msg) ]
             | _ -> Json.Obj [ ("error", Json.Str "unexpected response") ]))
        f.f_acc;
      reply p
        (Wire.Stats_payload
           (Json.Obj
              [ ("router", router_stats st);
                ("shards", Json.List (Array.to_list answers)) ]))

let fan_out st (c : cconn) id fkind req =
  match live st with
  | [] -> (
      match fkind with
      | F_stats ->
          client_send c
            (Wire.encode_response ~id
               (Wire.Stats_payload
                  (Json.Obj
                     [ ("router", router_stats st);
                       ("shards", Json.List []) ])))
      | F_load ->
          client_send c (Wire.encode_response ~id (Wire.Error "no live shard"))
      | F_shutdown ->
          client_send c (Wire.encode_response ~id Wire.Ack);
          st.stop <- true)
  | bs ->
      let f = { f_kind = fkind; f_waiting = List.length bs; f_acc = [] } in
      let now = Unix.gettimeofday () in
      List.iter
        (fun b ->
          backend_send st b
            { p_conn = c; p_cid = id; p_kind = K_fan f; p_sent = now }
            req)
        bs

(* --- request dispatch --- *)

let route_query st (c : cconn) ~cid ~salt ~mk_kind ~fail q =
  match pick st ~key:(routing_key st q) ~salt ~attempt:0 with
  | None -> fail "no live shard"
  | Some b ->
      st.routed <- st.routed + 1;
      Obs.Metrics.add m_routed 1;
      b.b_routed <- b.b_routed + 1;
      Obs.Metrics.add (Obs.Metrics.counter_family "shard.routed" b.b_idx) 1;
      backend_send st b
        { p_conn = c; p_cid = cid; p_kind = mk_kind ();
          p_sent = Unix.gettimeofday () }
        (Wire.Certify q)

let handle_client_frame st (c : cconn) line =
  let id, req = Wire.decode_request (Json.of_string line) in
  match req with
  | Wire.Certify q ->
      st.received <- st.received + 1;
      if st.stop then
        client_send c
          (Wire.encode_response ~id (Wire.Error "router is draining"))
      else
        route_query st c ~cid:id ~salt:0
          ~mk_kind:(fun () -> K_single (q, 0))
          ~fail:(fun msg ->
            client_send c (Wire.encode_response ~id (Wire.Error msg)))
          q
  | Wire.Batch items ->
      let n = List.length items in
      st.received <- st.received + n;
      if st.stop then
        client_send c
          (Wire.encode_response ~id (Wire.Error "router is draining"))
      else if n = 0 then
        client_send c
          (Wire.encode_response ~id
             (Wire.Batch_done
                { bd_items = 0; bd_errors = 0; bd_degraded = false }))
      else begin
        (* each item routes independently: the tag carries its identity,
           so answers merge back in whatever order shards finish *)
        let bt =
          { bt_conn = c; bt_cid = id; bt_items = n; bt_remaining = n;
            bt_errors = 0; bt_degraded = false }
        in
        List.iteri
          (fun idx q ->
            route_query st c ~cid:id ~salt:idx
              ~mk_kind:(fun () -> K_item (bt, idx, q, 0))
              ~fail:(fun msg -> batch_item bt idx (Stdlib.Error msg))
              q)
          items
      end
  | Wire.Load _ ->
      (* to every live shard: after a failover, digest-only retries must
         find the model wherever they land *)
      fan_out st c id F_load req
  | Wire.Stats -> fan_out st c id F_stats req
  | Wire.Shutdown ->
      log st "shutdown requested";
      fan_out st c id F_shutdown req
  | Wire.Ping -> client_send c (Wire.encode_response ~id Wire.Ack)

(* --- backend responses --- *)

let annotate b attempts (r : Wire.result) =
  { r with
    Wire.r_shard = Some b.b_idx;
    r_degraded = r.Wire.r_degraded || attempts > 0 }

let dispatch st b bid resp =
  match Hashtbl.find_opt b.b_pending bid with
  | None -> log st "shard %d answered unknown id %d" b.b_idx bid
  | Some p -> (
      Hashtbl.remove b.b_pending bid;
      set_inflight b;
      Hist.add b.b_hist (Unix.gettimeofday () -. p.p_sent);
      match p.p_kind with
      | K_single (_, attempts) -> (
          match resp with
          | Wire.Result r -> reply p (Wire.Result (annotate b attempts r))
          | Wire.Error _ -> reply p resp
          | _ -> reply p (Wire.Error "unexpected response from shard"))
      | K_item (bt, idx, _, attempts) -> (
          match resp with
          | Wire.Result r -> batch_item bt idx (Ok (annotate b attempts r))
          | Wire.Error msg -> batch_item bt idx (Stdlib.Error msg)
          | _ ->
              batch_item bt idx
                (Stdlib.Error "unexpected response from shard"))
      | K_fan f ->
          f.f_acc <- (b.b_idx, resp) :: f.f_acc;
          f.f_waiting <- f.f_waiting - 1;
          if f.f_waiting = 0 then finish_fan st p f)

(* --- startup / event loop --- *)

let run (cfg : config) =
  if cfg.backends = [] then failwith "grc shard: need at least one backend";
  let stop_sig = Atomic.make false in
  if cfg.handle_signals then begin
    let h _ = Atomic.set stop_sig true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle h);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle h)
  end;
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (* a stop signal interrupts the connect loop's wait: give up then,
     before the front socket exists *)
  let connect addr =
    let deadline = Unix.gettimeofday () +. cfg.connect_timeout_s in
    try Client.dial ~deadline addr
    with Failure msg ->
      failwith
        (if Atomic.get stop_sig then
           Printf.sprintf "grc shard: stopped while waiting for backend %s"
             (Client.addr_str addr)
         else "grc shard: " ^ msg)
  in
  let backends =
    Array.of_list cfg.backends
    |> Array.mapi (fun i addr ->
           { b_idx = i; b_addr = addr;
             b_fd = Some (connect addr);
             b_carry = Buffer.create 4096; b_next_id = 1;
             b_pending = Hashtbl.create 64; b_hist = Hist.create ();
             b_routed = 0; b_retried_onto = 0 })
  in
  let st =
    { cfg; backends; digest_memo = Hashtbl.create 8; stop = false;
      started = Unix.gettimeofday (); received = 0; routed = 0; retried = 0;
      deaths = 0 }
  in
  let listener = Server.listen_socket cfg.addr in
  log st "routing across %d shards" (Array.length backends);
  let conns = ref [] in
  let next_conn_id = ref 0 in
  let listener_open = ref true in
  let drop_conn c =
    c.cc_alive <- false;
    (try Unix.close c.cc_fd with Unix.Unix_error _ -> ());
    conns := List.filter (fun c' -> c'.cc_id <> c.cc_id) !conns
  in
  let start_drain () =
    if !listener_open then begin
      listener_open := false;
      (try Unix.close listener with Unix.Unix_error _ -> ());
      let inflight =
        Array.fold_left
          (fun acc b -> acc + Hashtbl.length b.b_pending)
          0 st.backends
      in
      log st "draining: %d in flight" inflight
    end
  in
  let finished () =
    st.stop
    && Array.for_all (fun b -> Hashtbl.length b.b_pending = 0) st.backends
  in
  while not (finished ()) do
    if Atomic.get stop_sig then st.stop <- true;
    if st.stop then start_drain ();
    (* conns whose write side failed are swept here *)
    List.iter (fun c -> if not c.cc_alive then drop_conn c) !conns;
    let read_fds =
      (if !listener_open then [ listener ] else [])
      @ List.map (fun c -> c.cc_fd) !conns
      @ (Array.to_list st.backends
        |> List.filter_map (fun b -> b.b_fd))
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
                  conns :=
                    { cc_id = !next_conn_id; cc_fd = cfd;
                      cc_carry = Buffer.create 4096; cc_alive = true }
                    :: !conns;
                  log st "conn %d accepted" !next_conn_id
              | exception Unix.Unix_error _ -> ()
            end
            else
              match
                Array.find_opt (fun b -> b.b_fd = Some fd) st.backends
              with
              | Some b -> (
                  match Wire.read_lines b.b_carry fd with
                  | None -> kill_backend st b
                  | Some lines -> (
                      try
                        List.iter
                          (fun line ->
                            if String.trim line <> "" then begin
                              let bid, resp =
                                Wire.decode_response (Json.of_string line)
                              in
                              dispatch st b bid resp
                            end)
                          lines
                      with Failure msg ->
                        (* a shard speaking garbage is as dead as one
                           that hung up: reroute its work *)
                        log st "shard %d protocol error: %s" b.b_idx msg;
                        kill_backend st b))
              | None -> (
                  match
                    List.find_opt
                      (fun c -> c.cc_fd = fd && c.cc_alive)
                      !conns
                  with
                  | None -> ()
                  | Some c -> (
                      match Wire.read_lines c.cc_carry fd with
                      | None ->
                          log st "conn %d closed" c.cc_id;
                          drop_conn c
                      | Some lines ->
                          List.iter
                            (fun line ->
                              if String.trim line <> "" then
                                try handle_client_frame st c line
                                with Failure msg ->
                                  client_send c
                                    (Wire.encode_response ~id:0
                                       (Wire.Error msg)))
                            lines)))
          ready
  done;
  List.iter (fun c -> drop_conn c) !conns;
  Array.iter
    (fun b ->
      match b.b_fd with
      | Some fd ->
          b.b_fd <- None;
          (try Unix.close fd with Unix.Unix_error _ -> ())
      | None -> ())
    st.backends;
  if !listener_open then (try Unix.close listener with Unix.Unix_error _ -> ());
  (match cfg.addr with
   | Server.Unix_path path ->
       (try Unix.unlink path with Unix.Unix_error _ -> ())
   | Server.Tcp _ -> ());
  log st "stopped"
