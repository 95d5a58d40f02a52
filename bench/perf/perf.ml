(* The repository benchmark.

     perf.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
     perf.exe summarize [--bench BENCHMARK.json] [--json OUT] RUN... [--vs RUN...]

   With --workload, run that one workload in this process: set up, run
   its closed loop for S seconds, check every answer, and print
   "workload metric value unit" lines, a record line for summarize, and
   last the result line {"correct", "attempted", "failed", "metrics"}.
   --trace 1 reports the per-layer metrics instead of the end-to-end
   ones.  The exit code is 1 when a check failed.

   Without --workload, run every workload in its own child process (and,
   with --trace 1, each once more traced); exits 1 if any child failed. *)

let workloads =
  [ ("certify-mlp", Certify_workload.run Certify_workload.mlp);
    ("certify-refine", Certify_workload.run Certify_workload.refine);
    ("serve-mixed", Serve_mixed.run);
    ("train-recert", Train_recert.run) ]

let usage () =
  prerr_endline
    "usage: perf.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]\n\
    \       perf.exe summarize [--bench BENCHMARK.json] [--json OUT] RUN... [--vs RUN...]";
  exit 2

let run_one ~workload ~seed ~seconds ~trace =
  let run = List.assoc workload workloads in
  (* scratch space inside the checkout, relative so socket paths stay short *)
  let root = "_perf_tmp" in
  if not (Sys.file_exists root) then Sys.mkdir root 0o755;
  let tmp = Filename.concat root (string_of_int (Unix.getpid ())) in
  Common.rm_rf tmp;
  Sys.mkdir tmp 0o755;
  at_exit (fun () ->
      Common.rm_rf tmp;
      try Unix.rmdir root with Unix.Unix_error _ -> ());
  Filename.set_temp_dir_name tmp;
  let ctx = { Common.seed; seconds; trace; tmp } in
  let r = run ctx in
  Common.print ctx r;
  exit (if !Common.failures = 0 then 0 else 1)

let run_all ~seed ~seconds ~trace =
  let child workload traced =
    let args =
      [| Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed;
         "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if traced then "1" else "0") |]
    in
    flush_all ();
    let pid = Unix.create_process args.(0) args Unix.stdin Unix.stdout Unix.stderr in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> true
    | _ ->
        Printf.eprintf "perf: %s%s failed\n%!" workload (if traced then " (traced)" else "");
        false
  in
  let ok =
    List.fold_left
      (fun ok (w, _) ->
        let untraced = child w false in
        let traced = (not trace) || child w true in
        ok && untraced && traced)
      true workloads
  in
  exit (if ok then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "summarize" :: rest -> Summarize.main rest
  | args ->
      let rec parse w seed seconds trace = function
        | "--workload" :: v :: rest when List.mem_assoc v workloads ->
            parse (Some v) seed seconds trace rest
        | "--seed" :: v :: rest -> (
            match int_of_string_opt v with
            | Some s -> parse w s seconds trace rest
            | None -> usage ())
        | "--seconds" :: v :: rest -> (
            match float_of_string_opt v with
            | Some s when s > 0.0 -> parse w seed s trace rest
            | _ -> usage ())
        | "--trace" :: ("0" | "1" as v) :: rest -> parse w seed seconds (v = "1") rest
        | [] -> (w, seed, seconds, trace)
        | _ -> usage ()
      in
      let workload, seed, seconds, trace = parse None 1 15.0 false args in
      match workload with
      | Some workload -> run_one ~workload ~seed ~seconds ~trace
      | None -> run_all ~seed ~seconds ~trace
