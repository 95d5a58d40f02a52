(* The shard router: deterministic routing, batch fan-out/merge, backend
   death (retry + degraded), stats aggregation, and a 2-shard sweep that
   is bitwise-identical to one-shot certification. *)

module Json = Serve.Json
module Wire = Serve.Wire
module Shard = Serve.Shard

let fresh_sock () =
  let p = Filename.temp_file "grc-shard" ".sock" in
  Sys.remove p;
  p

(* --- the routing function --- *)

let test_route_index () =
  let shards = 4 in
  for salt = 0 to 7 do
    List.iter
      (fun digest ->
        let i = Shard.route_index ~digest ~salt ~shards in
        Alcotest.(check bool) "in range" true (i >= 0 && i < shards);
        Alcotest.(check int) "deterministic" i
          (Shard.route_index ~digest ~salt ~shards))
      [ "a"; "b"; "0123456789abcdef"; "" ]
  done;
  (* consecutive salts walk consecutive shards: a one-network batch
     spreads instead of piling on one backend *)
  let d = "somedigest" in
  let i0 = Shard.route_index ~digest:d ~salt:0 ~shards:2 in
  let i1 = Shard.route_index ~digest:d ~salt:1 ~shards:2 in
  Alcotest.(check bool) "salt fans out" true (i0 <> i1);
  (match Shard.route_index ~digest:d ~salt:0 ~shards:0 with
   | _ -> Alcotest.fail "accepted zero shards"
   | exception Invalid_argument _ -> ())

(* --- mock backends ---

   A thread speaking just enough of the daemon protocol to test the
   router without solving anything: certify answers carry the backend's
   index in [r_eps] so the client can see who answered what.
   [die_after n] closes the connection abruptly after n certify
   answers — the crash the router must absorb. *)

let mock_backend ?die_after ~idx addr =
  let path = match addr with Serve.Server.Unix_path p -> p | _ -> assert false in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 4;
  Domain.spawn (fun () ->
      let cfd, _ = Unix.accept fd in
      let buf = Buffer.create 4096 in
      let answered = ref 0 in
      let quit = ref false in
      (try
         while not !quit do
           match Wire.read_frame buf cfd with
           | None -> quit := true
           | Some v -> (
               let id, req = Wire.decode_request v in
               let send resp =
                 Wire.write_frame cfd (Wire.encode_response ~id resp)
               in
               match req with
               | Wire.Certify q ->
                   send
                     (Wire.Result
                        { Wire.r_eps = [| float_of_int idx |];
                          r_digest =
                            Option.value ~default:"" q.Wire.q_digest;
                          r_cached = false; r_time_ms = 0.0; r_shard = None;
                          r_degraded = false });
                   incr answered;
                   (match die_after with
                    | Some n when !answered >= n -> quit := true
                    | _ -> ())
               | Wire.Load _ ->
                   send
                     (Wire.Loaded { digest = "mock"; params = 0; layers = 0 })
               | Wire.Stats ->
                   send
                     (Wire.Stats_payload
                        (Json.Obj
                           [ ("mock", Json.Num (float_of_int idx));
                             ("answered",
                              Json.Num (float_of_int !answered)) ]))
               | Wire.Ping -> send Wire.Ack
               | Wire.Shutdown ->
                   send Wire.Ack;
                   quit := true
               | Wire.Batch _ ->
                   send (Wire.Error "mock backend: no batch support"))
         done
       with _ -> ());
      (try Unix.close cfd with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (try Unix.unlink path with Unix.Unix_error _ -> ()))

let with_router ?(mk_backend = fun idx addr -> mock_backend ~idx addr) n f =
  let baddrs = List.init n (fun _ -> Serve.Server.Unix_path (fresh_sock ())) in
  let mocks = List.mapi mk_backend baddrs in
  let front = Serve.Server.Unix_path (fresh_sock ()) in
  let cfg =
    { (Shard.default_config front ~backends:baddrs) with
      Shard.handle_signals = false }
  in
  let router = Domain.spawn (fun () -> Shard.run cfg) in
  Fun.protect
    ~finally:(fun () ->
      List.iter Domain.join mocks;
      Domain.join router)
    (fun () -> f front)

let shutdown_via c =
  match Serve.Client.rpc c Wire.Shutdown with
  | Wire.Ack -> ()
  | _ -> Alcotest.fail "shutdown not acknowledged"

let dq d = { Wire.default_query with Wire.q_digest = Some d }

(* items land on the shard the routing function names, and the router
   annotates every result with that shard *)
let test_routing_determinism () =
  with_router 2 (fun front ->
      let c = Serve.Client.connect_retry front in
      (* single queries: pure digest affinity, same digest same shard *)
      let r1 = Serve.Client.certify c (dq "net-a") in
      let r2 = Serve.Client.certify c (dq "net-a") in
      Alcotest.(check bool) "single annotated" true (r1.Wire.r_shard <> None);
      Alcotest.(check bool) "single stable" true
        (r1.Wire.r_shard = r2.Wire.r_shard);
      Alcotest.(check (option int)) "single matches route_index"
        (Some (Shard.route_index ~digest:"net-a" ~salt:0 ~shards:2))
        r1.Wire.r_shard;
      (* batch items: salted by index, spread across both shards *)
      let queries = Array.init 6 (fun _ -> dq "net-a") in
      let results, degraded = Serve.Client.certify_batch c queries in
      Alcotest.(check bool) "no degradation" false degraded;
      Array.iteri
        (fun i res ->
          match res with
          | Ok r ->
              Alcotest.(check (option int))
                (Printf.sprintf "item %d placement" i)
                (Some (Shard.route_index ~digest:"net-a" ~salt:i ~shards:2))
                r.Wire.r_shard;
              Alcotest.(check bool) "not degraded" false r.Wire.r_degraded
          | Error msg -> Alcotest.failf "item %d failed: %s" i msg)
        results;
      let shards_hit =
        Array.to_list results
        |> List.filter_map (function
             | Ok r -> r.Wire.r_shard
             | Error _ -> None)
        |> List.sort_uniq compare
      in
      Alcotest.(check (list int)) "both shards used" [ 0; 1 ] shards_hit;
      shutdown_via c;
      Serve.Client.close c)

(* killing a backend mid-batch: its in-flight items are retried on the
   survivor, everything is answered, and the stream reports degraded *)
let test_backend_death_retry () =
  with_router 2
    ~mk_backend:(fun idx addr ->
      (* backend 0 answers one item and then drops the connection *)
      if idx = 0 then mock_backend ~die_after:1 ~idx addr
      else mock_backend ~idx addr)
    (fun front ->
      let c = Serve.Client.connect_retry front in
      let queries = Array.init 8 (fun _ -> dq "net-a") in
      let results, degraded = Serve.Client.certify_batch c queries in
      Alcotest.(check bool) "stream degraded" true degraded;
      let survivors = ref 0 in
      Array.iteri
        (fun i res ->
          match res with
          | Ok r ->
              if r.Wire.r_shard = Some 1 then incr survivors;
              if r.Wire.r_degraded then
                Alcotest.(check (option int))
                  (Printf.sprintf "item %d retried onto survivor" i)
                  (Some 1) r.Wire.r_shard
          | Error msg -> Alcotest.failf "item %d lost: %s" i msg)
        results;
      (* the survivor answered its own half plus the rerouted items *)
      Alcotest.(check bool) "survivor picked up the slack" true
        (!survivors > 4);
      Alcotest.(check bool) "some item marked degraded" true
        (Array.exists
           (function Ok r -> r.Wire.r_degraded | Error _ -> false)
           results);
      (* the router still works with one shard down *)
      let r = Serve.Client.certify c (dq "net-b") in
      Alcotest.(check (option int)) "routes around the corpse" (Some 1)
        r.Wire.r_shard;
      shutdown_via c;
      Serve.Client.close c)

(* with every backend dead, queries fail cleanly and streams still
   close *)
let test_all_backends_dead () =
  with_router 1
    ~mk_backend:(fun idx addr -> mock_backend ~die_after:1 ~idx addr)
    (fun front ->
      let c = Serve.Client.connect_retry front in
      ignore (Serve.Client.certify c (dq "a"));   (* kills the only shard *)
      (* give the router a beat to observe the EOF *)
      Unix.sleepf 0.2;
      (match Serve.Client.rpc c (Wire.Certify (dq "b")) with
       | Wire.Error _ -> ()
       | _ -> Alcotest.fail "dead fleet should error");
      let results, _ = Serve.Client.certify_batch c [| dq "c"; dq "d" |] in
      Array.iter
        (function
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "dead fleet answered a batch item")
        results;
      shutdown_via c;
      Serve.Client.close c)

(* stats aggregate the router's own counters with every shard's payload *)
let test_stats_aggregation () =
  with_router 2 (fun front ->
      let c = Serve.Client.connect_retry front in
      let queries = Array.init 4 (fun _ -> dq "net-a") in
      ignore (Serve.Client.certify_batch c queries);
      (match Serve.Client.rpc c Wire.Stats with
       | Wire.Stats_payload j ->
           let sub name parent =
             match Json.member name parent with
             | Some v -> v
             | None -> Alcotest.failf "stats missing %S" name
           in
           let router = sub "router" j in
           Alcotest.(check (option int)) "received" (Some 4)
             (Json.mem_int "received" (sub "requests" router));
           Alcotest.(check (option int)) "routed" (Some 4)
             (Json.mem_int "routed" (sub "requests" router));
           Alcotest.(check (option int)) "no deaths" (Some 0)
             (Json.mem_int "backend_deaths" (sub "requests" router));
           (match sub "per_shard" router with
            | Json.List l ->
                Alcotest.(check int) "per-shard rows" 2 (List.length l);
                List.iter
                  (fun row ->
                    Alcotest.(check bool) "row has latency" true
                      (Json.member "latency" row <> None);
                    Alcotest.(check bool) "row has inflight" true
                      (Json.member "inflight" row <> None))
                  l
            | _ -> Alcotest.fail "per_shard not a list");
           (match sub "shards" j with
            | Json.List l ->
                Alcotest.(check int) "shard payloads" 2 (List.length l);
                (* both mock backends answered the fan-out *)
                List.iter
                  (fun row ->
                    Alcotest.(check bool) "mock payload" true
                      (Json.member "mock" row <> None))
                  l
            | _ -> Alcotest.fail "shards not a list")
       | _ -> Alcotest.fail "expected stats payload");
      shutdown_via c;
      Serve.Client.close c)

(* --- real daemons: a 2-shard sweep is bitwise one-shot certify --- *)

let test_net () =
  let rng = Random.State.make [| 42 |] in
  Nn.Network.make
    [ Nn.Layer.dense_random ~relu:true ~rng ~in_dim:2 ~out_dim:3 ();
      Nn.Layer.dense_random ~rng ~in_dim:3 ~out_dim:1 () ]

let test_e2e_two_shard_sweep () =
  let net = test_net () in
  let deltas = [ 0.01; 0.02 ] in
  let regions = [ (0.0, 0.5); (0.0, 1.0) ] in
  let cells =
    List.concat_map
      (fun delta -> List.map (fun (lo, hi) -> (delta, lo, hi)) regions)
      deltas
  in
  let daddrs = List.init 2 (fun _ -> Serve.Server.Unix_path (fresh_sock ())) in
  let daemons =
    List.map
      (fun addr ->
        let cfg =
          { (Serve.Server.default_config addr) with
            Serve.Server.handle_signals = false; workers = 1 }
        in
        Domain.spawn (fun () -> Serve.Server.run cfg))
      daddrs
  in
  let front = Serve.Server.Unix_path (fresh_sock ()) in
  let router =
    Domain.spawn (fun () ->
        Shard.run
          { (Shard.default_config front ~backends:daddrs) with
            Shard.handle_signals = false })
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter Domain.join daemons;
      Domain.join router)
    (fun () ->
      let c = Serve.Client.connect_retry front in
      (* load fans out to every shard, so digest-only items work on
         whichever backend they land on *)
      let digest = Serve.Client.load c (Nn.Io.to_string net) in
      Alcotest.(check string) "digest" (Nn.Network.digest net) digest;
      let queries =
        cells
        |> List.map (fun (delta, lo, hi) ->
               { Wire.default_query with
                 Wire.q_digest = Some digest; q_delta = delta; q_lo = lo;
                 q_hi = hi })
        |> Array.of_list
      in
      let results, degraded = Serve.Client.certify_batch c queries in
      Alcotest.(check bool) "healthy sweep not degraded" false degraded;
      List.iteri
        (fun i (delta, lo, hi) ->
          let oneshot =
            (Cert.Certifier.certify_box net ~lo ~hi ~delta)
              .Cert.Certifier.eps
          in
          match results.(i) with
          | Error msg -> Alcotest.failf "cell %d failed: %s" i msg
          | Ok r ->
              Array.iteri
                (fun o e ->
                  if
                    Int64.bits_of_float e
                    <> Int64.bits_of_float r.Wire.r_eps.(o)
                  then
                    Alcotest.failf
                      "cell %d output %d drifted through the router" i o)
                oneshot)
        cells;
      (* both shards took part *)
      let shards_hit =
        Array.to_list results
        |> List.filter_map (function
             | Ok r -> r.Wire.r_shard
             | Error _ -> None)
        |> List.sort_uniq compare
      in
      Alcotest.(check (list int)) "spread over both shards" [ 0; 1 ]
        shards_hit;
      shutdown_via c;
      Serve.Client.close c)

let suites =
  [ ( "shard:routing",
      [ Alcotest.test_case "route_index" `Quick test_route_index;
        Alcotest.test_case "determinism + annotation" `Quick
          test_routing_determinism ] );
    ( "shard:failover",
      [ Alcotest.test_case "death mid-batch retries" `Quick
          test_backend_death_retry;
        Alcotest.test_case "all backends dead" `Quick test_all_backends_dead
      ] );
    ( "shard:stats",
      [ Alcotest.test_case "aggregation" `Quick test_stats_aggregation ] );
    ( "shard:e2e",
      [ Alcotest.test_case "2-shard sweep bitwise" `Quick
          test_e2e_two_shard_sweep ] ) ]
