(* Observability: metrics registry, span collection, exporters. *)

module Json = Serve.Json

(* Every test leaves tracing disabled and the span store empty so the
   rest of the suite (and its certify runs) stays untraced. *)
let with_tracing f =
  Obs.Trace.reset ();
  Obs.Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.set_enabled false;
      Obs.Trace.reset ())
    f

(* --- metrics --- *)

let test_metrics_counter () =
  let c = Obs.Metrics.counter "test.counter_a" in
  let before = Obs.Metrics.get c in
  Obs.Metrics.add c 3;
  Obs.Metrics.add c 4;
  Alcotest.(check int) "accumulates" (before + 7) (Obs.Metrics.get c);
  (* registration is idempotent: same name, same cell *)
  let c' = Obs.Metrics.counter "test.counter_a" in
  Obs.Metrics.add c' 1;
  Alcotest.(check int) "same cell" (before + 8) (Obs.Metrics.get c)

let test_metrics_gauge () =
  let g = Obs.Metrics.gauge "test.gauge_a" in
  Obs.Metrics.set g 2.5;
  Alcotest.(check (float 0.0)) "set/get" 2.5 (Obs.Metrics.get_gauge g);
  Obs.Metrics.set g (-1.0);
  Alcotest.(check (float 0.0)) "overwrite" (-1.0) (Obs.Metrics.get_gauge g)

let test_metrics_dump () =
  let c = Obs.Metrics.counter "test.dump_me" in
  Obs.Metrics.add c 5;
  let dump = Obs.Metrics.dump () in
  (match List.assoc_opt "test.dump_me" dump with
   | Some v -> Alcotest.(check bool) "dumped value" true (v >= 5.0)
   | None -> Alcotest.fail "registered counter missing from dump");
  let names = List.map fst dump in
  Alcotest.(check bool) "sorted by name" true
    (List.sort compare names = names);
  let lines = Obs.Export.metrics_lines () in
  Alcotest.(check bool) "metrics_lines mentions it" true
    (List.exists
       (fun l -> String.length l >= 12 && String.sub l 0 12 = "test.dump_me")
       (String.split_on_char '\n' lines))

let test_metrics_across_domains () =
  let c = Obs.Metrics.counter "test.domains" in
  let before = Obs.Metrics.get c in
  let doms =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 1000 do
              Obs.Metrics.add c 1
            done))
  in
  List.iter Domain.join doms;
  Alcotest.(check int) "no lost updates" (before + 4000) (Obs.Metrics.get c)

(* --- clock --- *)

let test_clock_monotonic () =
  let prev = ref (Obs.Clock.now ()) in
  for _ = 1 to 10_000 do
    let t = Obs.Clock.now () in
    if t < !prev then Alcotest.fail "clock went backwards";
    prev := t
  done

(* --- spans --- *)

let test_spans_disabled_no_roots () =
  Obs.Trace.reset ();
  Alcotest.(check bool) "disabled by default" false (Obs.Trace.enabled ());
  let r = Obs.Trace.with_span "t.invisible" (fun () -> 41 + 1) in
  Alcotest.(check int) "thunk result" 42 r;
  Obs.Trace.count "ignored" 3;
  Alcotest.(check int) "nothing collected" 0
    (List.length (Obs.Trace.roots ()))

let test_spans_nest_and_count () =
  with_tracing (fun () ->
      let r =
        Obs.Trace.with_span "t.outer" (fun () ->
            Obs.Trace.count "k" 2;
            let a = Obs.Trace.with_span "t.inner" (fun () ->
                Obs.Trace.count "k" 5;
                21)
            in
            Obs.Trace.count "k" 1;
            2 * a)
      in
      Alcotest.(check int) "result through spans" 42 r;
      match Obs.Trace.roots () with
      | [ root ] ->
          Alcotest.(check string) "root name" "t.outer" root.Obs.Trace.sp_name;
          Alcotest.(check bool) "root timed" true
            (root.Obs.Trace.sp_stop >= root.Obs.Trace.sp_start);
          (* [count] hits the innermost open span: 2 + 1 stay on the
             outer span, the 5 lands on the inner one *)
          Alcotest.(check (list (pair string int))) "outer counter"
            [ ("k", 3) ]
            (List.rev root.Obs.Trace.sp_counters);
          (match root.Obs.Trace.sp_children with
           | [ child ] ->
               Alcotest.(check string) "child name" "t.inner"
                 child.Obs.Trace.sp_name;
               Alcotest.(check (list (pair string int))) "child counter"
                 [ ("k", 5) ]
                 (List.rev child.Obs.Trace.sp_counters);
               Alcotest.(check bool) "child within parent" true
                 (child.Obs.Trace.sp_start >= root.Obs.Trace.sp_start
                  && child.Obs.Trace.sp_stop <= root.Obs.Trace.sp_stop)
           | cs -> Alcotest.failf "expected 1 child, got %d" (List.length cs))
      | rs -> Alcotest.failf "expected 1 root, got %d" (List.length rs))

let test_spans_survive_exception () =
  with_tracing (fun () ->
      (try
         Obs.Trace.with_span "t.raiser" (fun () -> failwith "boom")
       with Failure _ -> ());
      (* the span closed and was collected; the stack is balanced, so a
         following span is a sibling root, not a child *)
      Obs.Trace.with_span "t.after" (fun () -> ());
      match List.map (fun s -> s.Obs.Trace.sp_name) (Obs.Trace.roots ()) with
      | [ "t.raiser"; "t.after" ] -> ()
      | names ->
          Alcotest.failf "unexpected roots: %s" (String.concat "," names))

let test_spans_worker_domains () =
  with_tracing (fun () ->
      let doms =
        List.init 3 (fun i ->
            Domain.spawn (fun () ->
                Obs.Trace.with_span "t.worker" (fun () ->
                    Obs.Trace.count "i" i)))
      in
      List.iter Domain.join doms;
      let roots = Obs.Trace.roots () in
      Alcotest.(check int) "one root per domain" 3 (List.length roots);
      let tids =
        List.sort_uniq compare
          (List.map (fun s -> s.Obs.Trace.sp_tid) roots)
      in
      Alcotest.(check int) "distinct tids" 3 (List.length tids))

(* --- exporters --- *)

let test_chrome_json_parses () =
  with_tracing (fun () ->
      Obs.Trace.with_span "t.a" (fun () ->
          Obs.Trace.count "c\"tricky" 1;
          Obs.Trace.with_span "t.b" (fun () -> ()));
      let text = Obs.Export.chrome_json (Obs.Trace.roots ()) in
      match Json.of_string text with
      | j -> (
          match Json.mem_list "traceEvents" j with
          | Some evs ->
              Alcotest.(check int) "two events" 2 (List.length evs);
              List.iter
                (fun e ->
                  (match Json.mem_str "ph" e with
                   | Some "X" -> ()
                   | _ -> Alcotest.fail "ph must be X");
                  (match (Json.mem_num "ts" e, Json.mem_num "dur" e) with
                   | Some ts, Some dur ->
                       Alcotest.(check bool) "sane times" true
                         (ts >= 0.0 && dur >= 0.0)
                   | _ -> Alcotest.fail "missing ts/dur"))
                evs
          | None -> Alcotest.fail "no traceEvents")
      | exception Failure msg -> Alcotest.failf "invalid JSON: %s" msg)

let test_span_tree_text () =
  with_tracing (fun () ->
      Obs.Trace.with_span "t.root" (fun () ->
          Obs.Trace.with_span "t.leaf" (fun () -> Obs.Trace.count "n" 7));
      let text = Obs.Export.span_tree (Obs.Trace.roots ()) in
      let has needle =
        let nl = String.length needle and tl = String.length text in
        let rec go i =
          i + nl <= tl && (String.sub text i nl = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "root line" true (has "t.root");
      Alcotest.(check bool) "indented leaf" true (has "  t.leaf");
      Alcotest.(check bool) "counter rendered" true (has "[n=7]"))

(* What the always-compiled-in instrumentation costs with tracing off.
   A direct difference of two certify timings cannot resolve a
   sub-percent effect over solver noise, so the per-call cost of a
   disabled [with_span] over the bare closure (best of 5 rounds of 2M
   calls) is multiplied into the events one traced certification of
   Table I's DNN-3 executes, over the best of 5 disabled certifies.
   The tax must stay at or below 5%. *)
let test_disabled_tracing_tax () =
  let time_s f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let iters = 2_000_000 in
  let sink = ref 0 in
  let bare () = incr sink in
  (* interleaved rounds, minima kept: robust to one-off scheduler noise *)
  let best_bare = ref infinity and best_span = ref infinity in
  for _ = 1 to 5 do
    best_bare :=
      Float.min !best_bare
        (time_s (fun () -> for _ = 1 to iters do bare () done));
    best_span :=
      Float.min !best_span
        (time_s (fun () ->
             for _ = 1 to iters do
               Obs.Trace.with_span "test.noop" bare
             done))
  done;
  ignore (Sys.opaque_identity !sink);
  let per_call_s =
    Float.max 0.0 ((!best_span -. !best_bare) /. float_of_int iters)
  in
  let net = Test_nets.dnn3 () in
  let certify () =
    ignore (Cert.Certifier.certify_box net ~lo:0.0 ~hi:1.0 ~delta:0.001)
  in
  let events =
    with_tracing (fun () ->
        certify ();
        let rec n_events (s : Obs.Trace.span) =
          1
          + List.length s.Obs.Trace.sp_counters
          + List.fold_left (fun acc c -> acc + n_events c) 0
              s.Obs.Trace.sp_children
        in
        List.fold_left
          (fun acc r -> acc + n_events r)
          0 (Obs.Trace.roots ()))
  in
  let certify_s =
    List.fold_left Float.min infinity
      (List.init 5 (fun _ -> time_s certify))
  in
  let tax = float_of_int events *. per_call_s /. certify_s in
  Printf.printf "%.1fns/call x %d events / %.3fms certify = %.4f%%\n"
    (per_call_s *. 1e9) events (certify_s *. 1e3) (tax *. 100.0);
  if tax > 0.05 then
    Alcotest.failf "disabled-tracing tax %.2f%% exceeds 5%%" (tax *. 100.0)

let suites =
  [ ( "obs",
      [ Alcotest.test_case "metrics counter" `Quick test_metrics_counter;
        Alcotest.test_case "metrics gauge" `Quick test_metrics_gauge;
        Alcotest.test_case "metrics dump" `Quick test_metrics_dump;
        Alcotest.test_case "metrics across domains" `Quick
          test_metrics_across_domains;
        Alcotest.test_case "clock monotonic" `Quick test_clock_monotonic;
        Alcotest.test_case "disabled tracing collects nothing" `Quick
          test_spans_disabled_no_roots;
        Alcotest.test_case "spans nest and count" `Quick
          test_spans_nest_and_count;
        Alcotest.test_case "spans survive exceptions" `Quick
          test_spans_survive_exception;
        Alcotest.test_case "worker-domain spans become roots" `Quick
          test_spans_worker_domains;
        Alcotest.test_case "chrome json parses" `Quick
          test_chrome_json_parses;
        Alcotest.test_case "span tree text" `Quick test_span_tree_text;
        Alcotest.test_case "disabled tracing tax" `Quick
          test_disabled_tracing_tax ] ) ]
