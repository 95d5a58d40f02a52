(* Service layer: JSON codec, wire protocol, queue, histogram, cache,
   and the daemon end to end (bitwise equality with one-shot certify,
   persistence across restarts, deadlines, graceful shutdown). *)

module Json = Serve.Json
module Wire = Serve.Wire

(* --- json codec --- *)

let test_json_atoms () =
  Alcotest.(check string) "null" "null" (Json.to_string Json.Null);
  Alcotest.(check string) "true" "true" (Json.to_string (Json.Bool true));
  Alcotest.(check string) "int" "3" (Json.to_string (Json.Num 3.0));
  Alcotest.(check string) "neg" "-2.5" (Json.to_string (Json.Num (-2.5)));
  Alcotest.(check string) "string" "\"a\\\"b\""
    (Json.to_string (Json.Str "a\"b"));
  Alcotest.(check string) "nested" "{\"xs\":[1,null]}"
    (Json.to_string
       (Json.Obj [ ("xs", Json.List [ Json.Num 1.0; Json.Null ]) ]))

let test_json_parse () =
  (match Json.of_string "  {\"a\" : [1, -2.5e3, \"x\\u0041\"], \"b\":{}} " with
   | Json.Obj [ ("a", Json.List [ Json.Num a; Json.Num b; Json.Str s ]);
                ("b", Json.Obj []) ] ->
       Alcotest.(check (float 0.0)) "one" 1.0 a;
       Alcotest.(check (float 0.0)) "exp" (-2500.0) b;
       Alcotest.(check string) "escape" "xA" s
   | _ -> Alcotest.fail "unexpected parse");
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | _ -> Alcotest.failf "accepted %S" bad
      | exception Failure _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "\"unterminated"; "1 2";
      "{\"a\":1,}"; "[1] trailing"; "\"bad \\x escape\"" ]

(* floats survive a print/parse round trip bit for bit *)
let json_float_roundtrip_prop =
  let gen =
    QCheck.Gen.(
      oneof
        [ float; map Int64.float_of_bits int64;
          oneofl [ 0.0; -0.0; 1e-300; 1.0 /. 3.0; max_float; min_float ] ])
  in
  Test_seed.to_alcotest
    (QCheck.Test.make ~count:2000 ~name:"json float roundtrip bitwise"
       (QCheck.make gen) (fun x ->
         if not (Float.is_finite x) then true (* the codec rejects those *)
         else
           match Json.of_string (Json.to_string (Json.Num x)) with
           | Json.Num y -> Int64.bits_of_float y = Int64.bits_of_float x
           | _ -> false))

(* arbitrary trees survive a round trip (strings over full byte range) *)
let json_tree_roundtrip_prop =
  let open QCheck.Gen in
  let str_gen = string_size ~gen:char (int_range 0 12) in
  let rec tree n =
    if n = 0 then
      oneof
        [ return Json.Null; map (fun b -> Json.Bool b) bool;
          map (fun f -> Json.Num (float_of_int f)) small_signed_int;
          map (fun s -> Json.Str s) str_gen ]
    else
      frequency
        [ (2, tree 0);
          (1, map (fun l -> Json.List l) (list_size (int_range 0 4)
                                            (tree (n - 1))));
          (1,
           map
             (fun kvs -> Json.Obj kvs)
             (list_size (int_range 0 4)
                (pair str_gen (tree (n - 1))))) ]
  in
  Test_seed.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"json tree roundtrip"
       (QCheck.make (tree 3)) (fun t ->
         Json.of_string (Json.to_string t) = t))

(* --- wire protocol --- *)

let sample_query =
  { Wire.q_net = Some "grc-net 1\nlayers 0\n"; q_digest = None;
    q_delta = 0.25; q_lo = -1.0; q_hi = 1.0; q_window = 3;
    q_refine = Cert.Refine.Count 4; q_no_cache = true;
    q_deadline_ms = Some 125.5 }

let test_wire_request_roundtrip () =
  let reqs =
    [ Wire.Certify sample_query;
      Wire.Certify { Wire.default_query with Wire.q_digest = Some "abcd" };
      Wire.Certify
        { Wire.default_query with
          Wire.q_digest = Some "ff"; q_refine = Cert.Refine.Fraction 0.5 };
      Wire.Batch [];
      Wire.Batch
        [ sample_query;
          { Wire.default_query with Wire.q_digest = Some "abcd" };
          { Wire.default_query with
            Wire.q_net = Some "grc-net 1\nlayers 0\n"; q_delta = 0.5 } ];
      Wire.Load "grc-net 1\nlayers 0\n"; Wire.Stats; Wire.Ping;
      Wire.Shutdown ]
  in
  List.iteri
    (fun i req ->
      let id = i + 1 in
      let id', req' =
        Wire.decode_request (Json.of_string (Wire.encode_request ~id req))
      in
      Alcotest.(check int) "id" id id';
      if req' <> req then Alcotest.failf "request %d did not roundtrip" i)
    reqs

let test_wire_response_roundtrip () =
  let resps =
    [ Wire.Result
        { Wire.r_eps = [| 0.125; 1.0 /. 3.0 |]; r_digest = "d";
          r_cached = true; r_time_ms = 1.5; r_shard = None;
          r_degraded = false };
      Wire.Result
        (* router annotations survive a roundtrip *)
        { Wire.r_eps = [| 0.5 |]; r_digest = "d"; r_cached = false;
          r_time_ms = 0.5; r_shard = Some 3; r_degraded = true };
      Wire.Loaded { digest = "abc"; params = 10; layers = 2 };
      Wire.Stats_payload (Json.Obj [ ("x", Json.Num 1.0) ]);
      Wire.Ack; Wire.Error "boom";
      Wire.Batch_item
        { bi_item = 2;
          bi_resp =
            Ok
              { Wire.r_eps = [| 1.0 /. 7.0 |]; r_digest = "d";
                r_cached = true; r_time_ms = 0.25; r_shard = Some 1;
                r_degraded = false } };
      Wire.Batch_item { bi_item = 0; bi_resp = Stdlib.Error "queue full" };
      Wire.Batch_done { bd_items = 3; bd_errors = 1; bd_degraded = true };
      Wire.Batch_done { bd_items = 0; bd_errors = 0; bd_degraded = false } ]
  in
  List.iteri
    (fun i resp ->
      let id = i + 10 in
      let id', resp' =
        Wire.decode_response (Json.of_string (Wire.encode_response ~id resp))
      in
      Alcotest.(check int) "id" id id';
      if resp' <> resp then Alcotest.failf "response %d did not roundtrip" i)
    resps;
  (* a daemon's result frame carries no per-request solve counts; a
     parent daemon's frame still carries them, and they decode like any
     unknown member, to the same result with the same eps bits *)
  let daemon =
    { Wire.r_eps = [| 0.125; 1.0 /. 3.0 |]; r_digest = "d"; r_cached = false;
      r_time_ms = 1.5; r_shard = None; r_degraded = false }
  in
  let counts = [ "lp_solves"; "lp_warm"; "milp_solves" ] in
  let frame =
    Json.of_string (Wire.encode_response ~id:20 (Wire.Result daemon))
  in
  List.iter
    (fun name ->
      if Json.member name frame <> None then
        Alcotest.failf "daemon result carries %S" name)
    counts;
  let parent_frame =
    match frame with
    | Json.Obj members ->
        Json.Obj
          (members
          @ List.map2
              (fun name n -> (name, Json.Num n))
              counts [ 7.0; 3.0; 2.0 ])
    | _ -> Alcotest.fail "result frame is not an object"
  in
  match Wire.decode_response (Json.of_string (Json.to_string parent_frame)) with
  | 20, Wire.Result r ->
      if r <> daemon then Alcotest.fail "parent frame decoded differently";
      Array.iteri
        (fun i e ->
          if Int64.bits_of_float e <> Int64.bits_of_float r.Wire.r_eps.(i)
          then Alcotest.failf "parent frame eps %d drifted" i)
        daemon.Wire.r_eps
  | _ -> Alcotest.fail "parent frame did not decode to a result"

let test_wire_eps_bitwise () =
  (* certified bounds cross the wire bit for bit *)
  let eps = [| 1.0 /. 3.0; Float.succ 0.1; 4.9e-324; 0.0 |] in
  let r =
    { Wire.r_eps = eps; r_digest = ""; r_cached = false; r_time_ms = 0.0;
      r_shard = None; r_degraded = false }
  in
  match
    Wire.decode_response
      (Json.of_string (Wire.encode_response ~id:1 (Wire.Result r)))
  with
  | _, Wire.Result r' ->
      Array.iteri
        (fun i e ->
          if Int64.bits_of_float e <> Int64.bits_of_float r'.Wire.r_eps.(i)
          then Alcotest.failf "eps %d drifted" i)
        eps
  | _ -> Alcotest.fail "expected a result"

let test_wire_rejects () =
  List.iter
    (fun line ->
      match Wire.decode_request (Json.of_string line) with
      | _ -> Alcotest.failf "accepted %S" line
      | exception Failure _ -> ())
    [ "{\"op\":\"nope\",\"id\":1}"; "{\"id\":1}";
      "{\"op\":\"certify\",\"id\":1,\"window\":0,\"net\":\"x\"}";
      "{\"op\":\"certify\",\"id\":1}";
      "{\"op\":\"certify\",\"id\":1,\"digest\":\"d\",\"delta\":-0.001}";
      "{\"op\":\"certify\",\"id\":1,\"digest\":\"d\",\"lo\":1,\"hi\":0}";
      "{\"op\":\"certify\",\"id\":1,\"digest\":\"d\",\"refine_frac\":7}";
      "{\"op\":\"certify\",\"id\":1,\"digest\":\"d\",\"refine_frac\":-0.5}";
      "{\"op\":\"certify\",\"id\":1,\"digest\":\"d\",\"refine\":-3}" ];
  (* the retired [cancel] op is an unknown op like any other *)
  match
    Wire.decode_request
      (Json.of_string "{\"id\":1,\"op\":\"cancel\",\"target\":3}")
  with
  | _ -> Alcotest.fail "accepted a cancel frame"
  | exception Failure msg ->
      Alcotest.(check string) "cancel is unknown"
        "Serve.Wire: unknown op \"cancel\"" msg

(* Names of removed options get no special treatment: the retired
   [branch] and symbolic fields are unknown fields, ignored like any
   other down to the cache key, whatever their value. *)
let test_wire_legacy_names () =
  let decode field =
    let line =
      Printf.sprintf "{\"op\":\"certify\",\"id\":1,\"digest\":\"d\",%s}"
        field
    in
    match Wire.decode_request (Json.of_string line) with
    | _, Wire.Certify q -> q
    | _ -> Alcotest.failf "%s: not a certify request" field
  in
  let key q = Serve.Cache.key ~digest:"d" q in
  let plain = key (decode "\"delta\":0.001") in
  List.iter
    (fun field -> Alcotest.(check string) field plain (key (decode field)))
    [ "\"no_such_field\":1"; "\"symbolic\":true";
      "\"symbolic_mode\":\"back\""; "\"symbolic_mode\":\"sideways\"";
      "\"branch\":\"dual-guided\""; "\"branch\":\"most-fractional\"";
      "\"branch\":\"sideways\""; "\"branch\":\"violation\"" ]

(* --- codec fuzzing: hostile bytes must fail cleanly --- *)

(* The decoders' contract is total: anything malformed raises [Failure]
   with a message.  Any other exception — or a hang — is a bug, and
   qcheck reports non-[Failure] exceptions as property failures. *)

let json_fuzz_bytes_prop =
  let gen = QCheck.Gen.(string_size ~gen:char (int_range 0 64)) in
  Test_seed.to_alcotest
    (QCheck.Test.make ~count:2000 ~name:"json fuzz: arbitrary bytes"
       (QCheck.make gen) (fun s ->
         match Json.of_string s with
         | _ -> true
         | exception Failure _ -> true))

(* Mutations of genuine frames — truncations, duplicated slices, two
   frames spliced — are the near-misses a byte-level fuzzer rarely
   reaches.  Whatever still parses as JSON must then decode or be
   rejected with [Failure] by the wire layer. *)
let valid_frames =
  [ Wire.encode_request ~id:7 (Wire.Certify sample_query);
    Wire.encode_request ~id:1 Wire.Ping;
    Wire.encode_request ~id:2 (Wire.Load "grc-net 1\nlayers 0\n");
    Wire.encode_response ~id:3
      (Wire.Loaded { digest = "ab"; params = 2; layers = 1 });
    Wire.encode_response ~id:4
      (Wire.Result
         { Wire.r_eps = [| 0.5 |]; r_digest = "d"; r_cached = false;
           r_time_ms = 1.0; r_shard = None; r_degraded = false });
    Wire.encode_request ~id:5
      (Wire.Batch [ sample_query; Wire.default_query ]);
    Wire.encode_response ~id:6
      (Wire.Batch_item
         { bi_item = 1;
           bi_resp =
             Ok
               { Wire.r_eps = [| 0.25 |]; r_digest = "d"; r_cached = false;
                 r_time_ms = 1.0; r_shard = Some 1; r_degraded = true } });
    Wire.encode_response ~id:6
      (Wire.Batch_item { bi_item = 0; bi_resp = Stdlib.Error "boom" });
    Wire.encode_response ~id:6
      (Wire.Batch_done { bd_items = 2; bd_errors = 1; bd_degraded = true }) ]

let mutated_frame_gen =
  QCheck.Gen.(
    oneofl valid_frames >>= fun frame ->
    let n = String.length frame in
    oneof
      [ (* truncate *)
        map (fun k -> String.sub frame 0 k) (int_range 0 (max 0 (n - 1)));
        (* duplicate a slice in place *)
        ( int_range 0 (n - 1) >>= fun i ->
          int_range 0 (n - i) >>= fun len ->
          return
            (String.sub frame 0 (i + len)
            ^ String.sub frame i len
            ^ String.sub frame (i + len) (n - i - len)) );
        (* splice the head of one frame onto the tail of another *)
        ( oneofl valid_frames >>= fun other ->
          int_range 0 n >>= fun k ->
          let m = String.length other in
          int_range 0 m >>= fun k' ->
          return (String.sub frame 0 k ^ String.sub other k' (m - k')) );
        (* flip one byte *)
        ( int_range 0 (n - 1) >>= fun i ->
          char >>= fun c ->
          return
            (String.mapi (fun j old -> if i = j then c else old) frame) ) ])

let wire_fuzz_mutations_prop =
  Test_seed.to_alcotest
    (QCheck.Test.make ~count:2000 ~name:"wire fuzz: mutated frames"
       (QCheck.make mutated_frame_gen) (fun s ->
         match Json.of_string s with
         | exception Failure _ -> true
         | j ->
             (match Wire.decode_request j with
              | _ -> ()
              | exception Failure _ -> ());
             (match Wire.decode_response j with
              | _ -> ()
              | exception Failure _ -> ());
             true))

(* [read_frame] against hostile streams: garbage lines, EOF mid-frame,
   duplicated frames in one write — every stream terminates in clean
   frames, a [Failure], or a clean EOF.  Never a crash, never a loop. *)
let test_read_frame_hostile () =
  let feed bytes =
    let a, b = Unix.(socketpair PF_UNIX SOCK_STREAM 0) in
    let n = String.length bytes in
    let k = ref 0 in
    while !k < n do
      k := !k + Unix.write_substring b bytes !k (n - !k)
    done;
    Unix.close b;
    let buf = Buffer.create 64 in
    let rec drain acc =
      match Wire.read_frame buf a with
      | Some _ -> drain (acc + 1)
      | None -> Ok acc
      | exception Failure _ -> Error acc
    in
    Fun.protect ~finally:(fun () -> Unix.close a) (fun () -> drain 0)
  in
  let ping = Wire.encode_request ~id:1 Wire.Ping in
  let check name expected stream =
    if feed stream <> expected then Alcotest.fail name
  in
  check "empty stream is clean EOF" (Ok 0) "";
  check "two frames in one write" (Ok 2) (ping ^ "\n" ^ ping ^ "\n");
  check "garbage line fails" (Error 0) "not json\n";
  check "eof mid-frame fails" (Error 0) "{\"op\":\"ping\",\"id\"";
  check "frame then truncated tail" (Error 1) (ping ^ "\n{\"op");
  check "blank line fails" (Error 0) "\n";
  check "frame then garbage then frame" (Error 1)
    (ping ^ "\nxx\n" ^ ping ^ "\n")

(* --- bounded queue --- *)

let test_squeue_order_and_bounds () =
  let q = Serve.Squeue.create ~cap:2 in
  Alcotest.(check bool) "push 1" true (Serve.Squeue.try_push q 1 = `Ok);
  Alcotest.(check bool) "push 2" true (Serve.Squeue.try_push q 2 = `Ok);
  Alcotest.(check bool) "full" true (Serve.Squeue.try_push q 3 = `Full);
  Alcotest.(check int) "len" 2 (Serve.Squeue.length q);
  Alcotest.(check (option int)) "pop 1" (Some 1) (Serve.Squeue.pop q);
  Alcotest.(check bool) "push 3" true (Serve.Squeue.try_push q 3 = `Ok);
  Serve.Squeue.close q;
  Alcotest.(check bool) "closed" true (Serve.Squeue.try_push q 4 = `Closed);
  (* close drains: remaining items still pop, then None *)
  Alcotest.(check (option int)) "pop 2" (Some 2) (Serve.Squeue.pop q);
  Alcotest.(check (option int)) "pop 3" (Some 3) (Serve.Squeue.pop q);
  Alcotest.(check (option int)) "pop end" None (Serve.Squeue.pop q)

let test_squeue_threads () =
  let q = Serve.Squeue.create ~cap:4 in
  let n = 200 in
  let sum = Atomic.make 0 in
  let consumers =
    Array.init 2 (fun _ ->
        Domain.spawn (fun () ->
            let rec go () =
              match Serve.Squeue.pop q with
              | Some v ->
                  ignore (Atomic.fetch_and_add sum v);
                  go ()
              | None -> ()
            in
            go ()))
  in
  for i = 1 to n do
    let rec push () =
      match Serve.Squeue.try_push q i with
      | `Ok -> ()
      | `Full ->
          Domain.cpu_relax ();
          push ()
      | `Closed -> Alcotest.fail "queue closed early"
    in
    push ()
  done;
  Serve.Squeue.close q;
  Array.iter Domain.join consumers;
  Alcotest.(check int) "all consumed" (n * (n + 1) / 2) (Atomic.get sum)

(* --- histogram --- *)

let test_hist () =
  let h = Serve.Hist.create () in
  Alcotest.(check int) "empty" 0 (Serve.Hist.count h);
  (* 1ms, 2ms, 100ms *)
  Serve.Hist.add h 0.001;
  Serve.Hist.add h 0.002;
  Serve.Hist.add h 0.1;
  Alcotest.(check int) "count" 3 (Serve.Hist.count h);
  Alcotest.(check bool) "mean"
    true
    (Float.abs (Serve.Hist.mean h -. (0.103 /. 3.0)) < 1e-12);
  Alcotest.(check (float 0.0)) "max" 0.1 (Serve.Hist.max_seconds h);
  (* p50 falls in the bucket holding 2ms: its upper edge is >= 2ms and
     within one doubling *)
  let p50 = Serve.Hist.quantile h 0.5 in
  Alcotest.(check bool) "p50 bucket" true (p50 >= 0.002 && p50 <= 0.005);
  match Serve.Hist.to_json h with
  | Json.Obj kvs ->
      Alcotest.(check bool) "json fields" true
        (List.mem_assoc "count" kvs && List.mem_assoc "p99_ms" kvs
         && List.mem_assoc "buckets" kvs)
  | _ -> Alcotest.fail "expected an object"

(* a lone 424ms sample sits in the (262, 524] ms bucket; p99 must report
   the sample, not the bucket edge above every recorded value *)
let test_hist_quantile_capped () =
  let h = Serve.Hist.create () in
  Serve.Hist.add h 0.424;
  match Serve.Hist.to_json h with
  | Json.Obj kvs ->
      Alcotest.(check (float 1e-9)) "p99_ms" 424.0
        (match List.assoc_opt "p99_ms" kvs with
         | Some (Json.Num x) -> x
         | _ -> Alcotest.fail "p99_ms missing")
  | _ -> Alcotest.fail "expected an object"

(* --- result cache --- *)

let q0 = Wire.default_query

let test_cache_key_discriminates () =
  let k = Serve.Cache.key ~digest:"d" in
  let base = k q0 in
  List.iter
    (fun (name, q) ->
      if k q = base then Alcotest.failf "%s did not change the key" name)
    [ ("delta", { q0 with Wire.q_delta = Float.succ q0.Wire.q_delta });
      ("lo", { q0 with Wire.q_lo = -1.0 });
      ("hi", { q0 with Wire.q_hi = 2.0 });
      ("window", { q0 with Wire.q_window = 3 });
      ("refine", { q0 with Wire.q_refine = Cert.Refine.Count 1 });
      ("refine frac",
       { q0 with Wire.q_refine = Cert.Refine.Fraction 0.5 }) ];
  if Serve.Cache.key ~digest:"other" q0 = base then
    Alcotest.fail "digest did not change the key";
  (* no-cache and deadlines do not change the answer: same key *)
  Alcotest.(check string) "no_cache irrelevant" base
    (k { q0 with Wire.q_no_cache = true });
  Alcotest.(check string) "deadline irrelevant" base
    (k { q0 with Wire.q_deadline_ms = Some 5.0 })

(* Key spellings are persisted on disk: they must not move, or old cache
   files stop hitting. *)
let test_cache_key_stable () =
  Alcotest.(check string) "default query"
    "d|4562254508917369340|0|4607182418800017408|w2|r0"
    (Serve.Cache.key ~digest:"d" q0)

let test_cache_persistence () =
  let path = Filename.temp_file "grc-cache" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let eps = [| 1.0 /. 3.0; Float.succ 0.25 |] in
      let c1 = Serve.Cache.create ~path () in
      Serve.Cache.add c1 "k1" eps;
      Serve.Cache.add c1 "k2" [| 0.5 |];
      Serve.Cache.close c1;
      (* a corrupt line must be skipped, not crash the reload; so must an
         entry of the old "v1" and "v2" key formats, which can never hit *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "garbage line\n";
      output_string oc "v1 k3 4607182418800017408\n";
      output_string oc "v2 k4 4607182418800017408\n";
      close_out oc;
      let c2 = Serve.Cache.create ~path () in
      (match Serve.Cache.find c2 "k1" with
       | Some eps' ->
           Array.iteri
             (fun i e ->
               if Int64.bits_of_float e <> Int64.bits_of_float eps'.(i) then
                 Alcotest.failf "eps %d drifted through persistence" i)
             eps
       | None -> Alcotest.fail "k1 lost");
      Alcotest.(check bool) "k2 loaded" true (Serve.Cache.find c2 "k2" <> None);
      Alcotest.(check bool) "k3 absent" true (Serve.Cache.find c2 "k3" = None);
      Alcotest.(check bool) "k4 absent" true (Serve.Cache.find c2 "k4" = None);
      let ctr = Serve.Cache.counters c2 in
      Alcotest.(check int) "loaded" 2 ctr.Serve.Cache.loaded;
      Alcotest.(check int) "hits" 2 ctr.Serve.Cache.hits;
      Alcotest.(check int) "misses" 2 ctr.Serve.Cache.misses;
      Serve.Cache.close c2;
      (* a file of nothing but a "v2" line loads 0 entries *)
      let old = Filename.temp_file "grc-cache" ".txt" in
      Fun.protect
        ~finally:(fun () -> Sys.remove old)
        (fun () ->
          let oc = open_out old in
          output_string oc "v2 k5 4607182418800017408\n";
          close_out oc;
          let c3 = Serve.Cache.create ~path:old () in
          Alcotest.(check int) "v2 loads 0" 0
            (Serve.Cache.counters c3).Serve.Cache.loaded;
          Serve.Cache.close c3))

let test_cache_shared_file () =
  (* two daemons may append to one persistence file: a third cache
     loads both entries, bit for bit *)
  let path = Filename.temp_file "grc-cache" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let ea = [| 0.1 +. 0.2; Float.pred 1.0 |]
      and eb = [| Float.min_float; -0.0; 1e300 |] in
      let a = Serve.Cache.create ~path () in
      let b = Serve.Cache.create ~path () in
      Serve.Cache.add a "ka" ea;
      Serve.Cache.add b "kb" eb;
      Serve.Cache.close a;
      Serve.Cache.close b;
      let c = Serve.Cache.create ~path () in
      Alcotest.(check int) "loaded both" 2
        (Serve.Cache.counters c).Serve.Cache.loaded;
      let bits eps = Array.map Int64.bits_of_float eps in
      List.iter
        (fun (k, want) ->
          match Serve.Cache.find c k with
          | Some got ->
              Alcotest.(check (array int64)) (k ^ " bitwise") (bits want)
                (bits got)
          | None -> Alcotest.failf "%s not loaded" k)
        [ ("ka", ea); ("kb", eb) ];
      Serve.Cache.close c)

(* --- daemon end to end --- *)

(* a unix socket path under the system tmpdir (sun_path is short) *)
let fresh_sock () =
  let p = Filename.temp_file "grc-test" ".sock" in
  Sys.remove p;
  p

let with_server ?cache_path ?(workers = 1) ?(queue_cap = 8) f =
  let sock = fresh_sock () in
  let addr = Serve.Server.Unix_path sock in
  let config =
    { Serve.Server.addr; workers; queue_cap; cache_path;
      handle_signals = false; verbose = false; metrics = true }
  in
  let srv = Domain.spawn (fun () -> Serve.Server.run config) in
  let finish () = Domain.join srv in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists sock then Sys.remove sock)
    (fun () -> f addr finish)

let shutdown_via c =
  match Serve.Client.rpc c Wire.Shutdown with
  | Wire.Ack -> ()
  | _ -> Alcotest.fail "shutdown not acknowledged"

let test_net () =
  let rng = Random.State.make [| 42 |] in
  Nn.Network.make
    [ Nn.Layer.dense_random ~relu:true ~rng ~in_dim:2 ~out_dim:3 ();
      Nn.Layer.dense_random ~rng ~in_dim:3 ~out_dim:1 () ]

let certify_query ?(no_cache = false) ?deadline_ms ~net ~delta () =
  { Wire.default_query with
    Wire.q_net = Some (Nn.Io.to_string net); q_delta = delta;
    q_no_cache = no_cache; q_deadline_ms = deadline_ms }

let check_bits name expected got =
  if Array.length expected <> Array.length got then
    Alcotest.failf "%s: eps length mismatch" name;
  Array.iteri
    (fun i e ->
      if Int64.bits_of_float e <> Int64.bits_of_float got.(i) then
        Alcotest.failf "%s: eps %d differs from one-shot (%.17g vs %.17g)"
          name i e got.(i))
    expected

let test_e2e_bitwise_and_cache () =
  let net = test_net () in
  let delta = 0.01 in
  let oneshot =
    (Cert.Certifier.certify_box net ~lo:0.0 ~hi:1.0 ~delta)
      .Cert.Certifier.eps
  in
  with_server (fun addr finish ->
      let c = Serve.Client.connect_retry addr in
      (* miss, solved by a worker *)
      let r1 = Serve.Client.certify c (certify_query ~net ~delta ()) in
      Alcotest.(check bool) "first not cached" false r1.Wire.r_cached;
      check_bits "solved" oneshot r1.Wire.r_eps;
      Alcotest.(check string) "digest" (Nn.Network.digest net)
        r1.Wire.r_digest;
      (* hit: same answer, served from the cache *)
      let r2 = Serve.Client.certify c (certify_query ~net ~delta ()) in
      Alcotest.(check bool) "second cached" true r2.Wire.r_cached;
      check_bits "cached" oneshot r2.Wire.r_eps;
      (* cache bypass: a second full solve still matches *)
      let r3 =
        Serve.Client.certify c (certify_query ~no_cache:true ~net ~delta ())
      in
      Alcotest.(check bool) "bypass not cached" false r3.Wire.r_cached;
      check_bits "cache bypass" oneshot r3.Wire.r_eps;
      (* digest-only resubmission of a loaded network *)
      let digest = Serve.Client.load c (Nn.Io.to_string net) in
      let r4 =
        Serve.Client.certify c
          { (certify_query ~net ~delta ()) with
            Wire.q_net = None; q_digest = Some digest }
      in
      check_bits "by digest" oneshot r4.Wire.r_eps;
      (* an unknown digest is a clean error, not a hang *)
      (match
         Serve.Client.rpc c
           (Wire.Certify
              { Wire.default_query with Wire.q_digest = Some "nope" })
       with
       | Wire.Error _ -> ()
       | _ -> Alcotest.fail "unknown digest should error");
      shutdown_via c;
      Serve.Client.close c;
      finish ())

let test_e2e_persistence_restart () =
  let net = test_net () in
  let delta = 0.02 in
  let oneshot =
    (Cert.Certifier.certify_box net ~lo:0.0 ~hi:1.0 ~delta)
      .Cert.Certifier.eps
  in
  let cache_path = Filename.temp_file "grc-cache" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove cache_path)
    (fun () ->
      with_server ~cache_path (fun addr finish ->
          let c = Serve.Client.connect_retry addr in
          let r = Serve.Client.certify c (certify_query ~net ~delta ()) in
          Alcotest.(check bool) "miss" false r.Wire.r_cached;
          shutdown_via c;
          Serve.Client.close c;
          finish ());
      (* a new daemon process over the same cache file answers from
         disk, bit for bit *)
      with_server ~cache_path (fun addr finish ->
          let c = Serve.Client.connect_retry addr in
          let r = Serve.Client.certify c (certify_query ~net ~delta ()) in
          Alcotest.(check bool) "hit after restart" true r.Wire.r_cached;
          check_bits "persisted" oneshot r.Wire.r_eps;
          shutdown_via c;
          Serve.Client.close c;
          finish ()))

let test_e2e_deadline () =
  (* a deadline that has already expired must abort the request inside
     the solver, not finish it *)
  let net = test_net () in
  with_server (fun addr finish ->
      let c = Serve.Client.connect_retry addr in
      (match
         Serve.Client.rpc c
           (Wire.Certify
              (certify_query ~no_cache:true ~deadline_ms:0.0 ~net ~delta:0.03
                 ()))
       with
       | Wire.Error msg ->
           Alcotest.(check bool) "mentions deadline" true
             (String.length msg > 0)
       | Wire.Result _ -> Alcotest.fail "expired request completed"
       | _ -> Alcotest.fail "unexpected response");
      (* the worker survives and still answers *)
      let r = Serve.Client.certify c (certify_query ~net ~delta:0.03 ()) in
      Alcotest.(check bool) "alive after expiry" false r.Wire.r_cached;
      (* deadlines are the only way to abandon a request: the retired
         [cancel] op gets an error frame, and its connection keeps
         answering *)
      let fd = Serve.Client.dial ~deadline:neg_infinity addr in
      let carry = Buffer.create 64 in
      let answer line =
        Wire.write_frame fd line;
        match Wire.read_frame carry fd with
        | Some v -> snd (Wire.decode_response v)
        | None -> Alcotest.fail "daemon closed the connection"
      in
      (match answer "{\"id\":7,\"op\":\"cancel\",\"target\":1}" with
       | Wire.Error msg ->
           Alcotest.(check string) "cancel answer"
             "Serve.Wire: unknown op \"cancel\"" msg
       | _ -> Alcotest.fail "cancel frame was accepted");
      (match answer (Wire.encode_request ~id:8 Wire.Ping) with
       | Wire.Ack -> ()
       | _ -> Alcotest.fail "connection stopped answering after cancel");
      Unix.close fd;
      shutdown_via c;
      Serve.Client.close c;
      finish ())

let test_e2e_stats_and_queue () =
  let net = test_net () in
  with_server (fun addr finish ->
      let c = Serve.Client.connect_retry addr in
      ignore (Serve.Client.certify c (certify_query ~net ~delta:0.04 ()));
      ignore (Serve.Client.certify c (certify_query ~net ~delta:0.04 ()));
      (match Serve.Client.rpc c Wire.Stats with
       | Wire.Stats_payload j ->
           let sub name parent =
             match Json.member name parent with
             | Some v -> v
             | None -> Alcotest.failf "stats missing %S" name
           in
           let requests = sub "requests" j in
           Alcotest.(check (option int)) "completed" (Some 2)
             (Json.mem_int "completed" requests);
           Alcotest.(check (option int)) "served_cached" (Some 1)
             (Json.mem_int "served_cached" requests);
           Alcotest.(check (option int)) "cache hits" (Some 1)
             (Json.mem_int "hits" (sub "cache" j));
           Alcotest.(check (option int)) "latency count" (Some 2)
             (Json.mem_int "count" (sub "all" (sub "latency" j)))
       | _ -> Alcotest.fail "expected stats");
      shutdown_via c;
      Serve.Client.close c;
      finish ())

let test_e2e_graceful_shutdown () =
  (* queued work finishes during drain; new connections are refused *)
  let net = test_net () in
  with_server (fun addr finish ->
      let c = Serve.Client.connect_retry addr in
      ignore (Serve.Client.certify c (certify_query ~net ~delta:0.05 ()));
      shutdown_via c;
      Serve.Client.close c;
      finish ();
      (* after drain the socket is gone: connecting fails cleanly *)
      match Serve.Client.connect addr with
      | c2 ->
          Serve.Client.close c2;
          Alcotest.fail "daemon still accepting after drain"
      | exception Failure _ -> ())

(* --- client robustness against a hostile/wedged server --- *)

(* A bare socket speaking whatever [handler] writes — for exercising
   the client against servers that stall or answer garbage. *)
let with_mock_server handler f =
  let sock = fresh_sock () in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX sock);
  Unix.listen fd 4;
  let srv =
    Domain.spawn (fun () ->
        match Unix.accept fd with
        | cfd, _ ->
            (try handler cfd with _ -> ());
            (try Unix.close cfd with Unix.Unix_error _ -> ())
        | exception Unix.Unix_error _ -> ())
  in
  Fun.protect
    ~finally:(fun () ->
      Domain.join srv;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if Sys.file_exists sock then Sys.remove sock)
    (fun () -> f (Serve.Server.Unix_path sock))

let drain_until_eof cfd =
  let buf = Bytes.create 4096 in
  let rec go () =
    match Unix.read cfd buf 0 (Bytes.length buf) with
    | 0 -> ()
    | _ -> go ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

let test_client_timeout () =
  (* a server that accepts and then never answers must produce a
     structured [Timeout], not a hang (this used to block forever) *)
  with_mock_server drain_until_eof (fun addr ->
      let c = Serve.Client.connect ~timeout_s:0.3 addr in
      let t0 = Unix.gettimeofday () in
      (match Serve.Client.rpc c Wire.Ping with
       | _ -> Alcotest.fail "wedged server produced a response"
       | exception Serve.Client.Timeout _ -> ()
       | exception Failure _ -> Alcotest.fail "expected Timeout, got Failure");
      let dt = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool) "timed out promptly" true (dt < 5.0);
      (* the timeout is adjustable and clearable *)
      Serve.Client.set_timeout c (Some 0.1);
      (match Serve.Client.rpc c Wire.Ping with
       | _ -> Alcotest.fail "still wedged"
       | exception Serve.Client.Timeout _ -> ());
      (match Serve.Client.set_timeout c (Some 0.0) with
       | () -> Alcotest.fail "zero timeout accepted"
       | exception Invalid_argument _ -> ());
      Serve.Client.close c)

let test_client_batch_bad_tag () =
  (* an out-of-range item tag is a protocol error, not a crash or an
     out-of-bounds write *)
  with_mock_server
    (fun cfd ->
      let buf = Buffer.create 256 in
      ignore (Wire.read_frame buf cfd);
      Wire.write_frame cfd
        (Wire.encode_response ~id:1
           (Wire.Batch_item { bi_item = 99; bi_resp = Stdlib.Error "x" }));
      drain_until_eof cfd)
    (fun addr ->
      let c = Serve.Client.connect ~timeout_s:5.0 addr in
      (match
         Serve.Client.certify_batch c
           [| Wire.default_query; Wire.default_query |]
       with
       | _ -> Alcotest.fail "bad tag accepted"
       | exception Failure _ -> ());
      Serve.Client.close c)

let test_e2e_batch () =
  let net = test_net () in
  let deltas = [| 0.01; 0.02; 0.03 |] in
  let oneshot =
    Array.map
      (fun delta ->
        (Cert.Certifier.certify_box net ~lo:0.0 ~hi:1.0 ~delta)
          .Cert.Certifier.eps)
      deltas
  in
  with_server ~workers:2 (fun addr finish ->
      let c = Serve.Client.connect_retry addr in
      let queries =
        Array.append
          (Array.map (fun delta -> certify_query ~net ~delta ()) deltas)
          (* one bad item: errors are per-item, the stream still closes *)
          [| { Wire.default_query with Wire.q_digest = Some "nope" } |]
      in
      let seen = ref [] in
      let results, degraded =
        Serve.Client.certify_batch c
          ~on_item:(fun i _ -> seen := i :: !seen)
          queries
      in
      Alcotest.(check int) "all items streamed" 4 (List.length !seen);
      Alcotest.(check bool) "tags cover the batch" true
        (List.sort compare !seen = [ 0; 1; 2; 3 ]);
      Alcotest.(check bool) "lone daemon never degrades" false degraded;
      Array.iteri
        (fun i _ ->
          match results.(i) with
          | Ok r -> check_bits (Printf.sprintf "item %d" i) oneshot.(i)
                      r.Wire.r_eps
          | Error msg -> Alcotest.failf "item %d failed: %s" i msg)
        deltas;
      (match results.(3) with
       | Error _ -> ()
       | Ok _ -> Alcotest.fail "unknown digest item should error");
      (* an empty batch closes immediately *)
      let empty, deg = Serve.Client.certify_batch c [||] in
      Alcotest.(check int) "empty batch" 0 (Array.length empty);
      Alcotest.(check bool) "empty not degraded" false deg;
      shutdown_via c;
      Serve.Client.close c;
      finish ())

(* --- epoch re-certification cache behaviour (train-robust loop) ---

   The training loop re-certifies by content digest every epoch;
   stale-bound reuse would silently certify the wrong network.  So:
   an SGD step must change the digest and miss the cache, while an
   unchanged network must hit every cell of the grid. *)

let test_e2e_train_recert_cache () =
  let net = test_net () in
  with_server (fun addr finish ->
      let c = Serve.Client.connect_retry addr in
      let recert n =
        Exp.Train_robust.recertify c ~window:2 ~lo:0.0 ~hi:1.0
          ~deltas:[| 0.005; 0.01 |] ~target:0.01 n
      in
      let r1 = recert net in
      Alcotest.(check int) "fresh net: all cells solved" 0
        r1.Exp.Train_robust.rc_cache_hits;
      Alcotest.(check int) "cells" 2 r1.Exp.Train_robust.rc_cells;
      Alcotest.(check string) "digest matches" (Nn.Network.digest net)
        r1.Exp.Train_robust.rc_digest;
      (* unchanged network: same digest, every cell from the cache *)
      let r2 = recert net in
      Alcotest.(check string) "unchanged digest"
        r1.Exp.Train_robust.rc_digest r2.Exp.Train_robust.rc_digest;
      Alcotest.(check int) "unchanged net: all cells cached" 2
        r2.Exp.Train_robust.rc_cache_hits;
      Array.iteri
        (fun i (d, eps) ->
          let d', eps' = r2.Exp.Train_robust.rc_grid.(i) in
          Alcotest.(check (float 0.0)) "grid delta" d d';
          check_bits (Printf.sprintf "cached cell %g" d) eps eps')
        r1.Exp.Train_robust.rc_grid;
      (* a weight nudge the size of one SGD step: new digest, all miss *)
      (match Nn.Layer.param_arrays (Nn.Network.layer net 0) with
       | w :: _ when Array.length w > 0 -> w.(0) <- w.(0) +. 1e-3
       | _ -> Alcotest.fail "expected dense parameters");
      let r3 = recert net in
      Alcotest.(check bool) "digest moved" false
        (r3.Exp.Train_robust.rc_digest = r1.Exp.Train_robust.rc_digest);
      Alcotest.(check string) "digest tracks the new weights"
        (Nn.Network.digest net) r3.Exp.Train_robust.rc_digest;
      Alcotest.(check int) "changed net: all cells solved" 0
        r3.Exp.Train_robust.rc_cache_hits;
      shutdown_via c;
      Serve.Client.close c;
      finish ())

let suites =
  [ ( "serve:json",
      [ Alcotest.test_case "atoms" `Quick test_json_atoms;
        Alcotest.test_case "parse" `Quick test_json_parse;
        json_float_roundtrip_prop; json_tree_roundtrip_prop ] );
    ( "serve:wire",
      [ Alcotest.test_case "request roundtrip" `Quick
          test_wire_request_roundtrip;
        Alcotest.test_case "response roundtrip" `Quick
          test_wire_response_roundtrip;
        Alcotest.test_case "eps bitwise" `Quick test_wire_eps_bitwise;
        Alcotest.test_case "rejects" `Quick test_wire_rejects;
        Alcotest.test_case "legacy names" `Quick test_wire_legacy_names;
        json_fuzz_bytes_prop; wire_fuzz_mutations_prop;
        Alcotest.test_case "read_frame hostile streams" `Quick
          test_read_frame_hostile ] );
    ( "serve:parts",
      [ Alcotest.test_case "squeue order/bounds" `Quick
          test_squeue_order_and_bounds;
        Alcotest.test_case "squeue threads" `Quick test_squeue_threads;
        Alcotest.test_case "histogram" `Quick test_hist;
        Alcotest.test_case "histogram quantile capped" `Quick
          test_hist_quantile_capped;
        Alcotest.test_case "cache key" `Quick test_cache_key_discriminates;
        Alcotest.test_case "cache key stable" `Quick test_cache_key_stable;
        Alcotest.test_case "cache persistence" `Quick test_cache_persistence;
        Alcotest.test_case "cache shared file" `Quick test_cache_shared_file
      ] );
    ( "serve:client",
      [ Alcotest.test_case "timeout on wedged server" `Quick
          test_client_timeout;
        Alcotest.test_case "batch bad tag" `Quick test_client_batch_bad_tag
      ] );
    ( "serve:daemon",
      [ Alcotest.test_case "bitwise vs one-shot" `Quick
          test_e2e_bitwise_and_cache;
        Alcotest.test_case "batch streaming" `Quick test_e2e_batch;
        Alcotest.test_case "persistence restart" `Quick
          test_e2e_persistence_restart;
        Alcotest.test_case "deadline expiry" `Quick test_e2e_deadline;
        Alcotest.test_case "stats" `Quick test_e2e_stats_and_queue;
        Alcotest.test_case "graceful shutdown" `Quick
          test_e2e_graceful_shutdown;
        Alcotest.test_case "train recert cache behaviour" `Quick
          test_e2e_train_recert_cache ] ) ]
