(* perf.exe summarize [--bench BENCHMARK.json] [--json OUT] RUN... [--vs RUN...]

   A RUN file is the saved standard output of perf.exe; its record lines
   (JSON objects with a "workload" field) are read, everything else is
   skipped.  For each workload (traced runs apart) and metric, print the
   median and quartiles across runs and flag:
   - an end-to-end metric whose spread (q3 - q1) / median exceeds its
     BENCHMARK.json bound (setup_s excepted: set-up runs only a few times
     at process start, so only its median is compared);
   - with --vs, an end-to-end metric whose median in the second set is
     worse than in the first by more than its bound;
   - eps_gmean or a per-layer counter delta that differs between runs
     of the same seed.
   --json writes the core counts, seeds and per-metric quartiles of each
   set.  Exits 1 when anything is flagged. *)

module J = Serve.Json

type record = {
  group : string;  (* workload, with " (traced)" for traced runs *)
  seed : int;
  cores : int;
  metrics : (string * float) list;
}

let read_records files =
  List.concat_map
    (fun file ->
      In_channel.with_open_text file In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter_map (fun line ->
             match J.of_string line with
             | exception Failure _ -> None
             | j -> (
                 match (J.mem_str "workload" j, J.member "metrics" j) with
                 | Some w, Some (J.Obj ms) ->
                     let int k = Option.value ~default:0 (J.mem_int k j) in
                     Some
                       { group = (if J.mem_bool "trace" j = Some true then w ^ " (traced)" else w);
                         seed = int "seed"; cores = int "cores";
                         metrics =
                           List.filter_map
                             (fun (k, v) -> Option.map (fun x -> (k, x)) (J.mem_num "value" v))
                             ms }
                 | _ -> None)))
    files

(* name -> (better, bound) of the BENCHMARK.json end_to_end metrics *)
let read_bounds file =
  let j = J.of_string (In_channel.with_open_text file In_channel.input_all) in
  List.filter_map
    (fun e ->
      match (J.mem_str "name" e, J.mem_str "better" e, J.mem_num "bound" e) with
      | Some n, Some b, Some x -> Some (n, (b, x))
      | _ -> None)
    (Option.value ~default:[] (J.mem_list "end_to_end" j))

let traced group = String.ends_with ~suffix:"(traced)" group

(* Counter deltas over a fixed counting unit repeat exactly; executor
   pool counters do not where two workers race for the same requests. *)
let must_repeat group name =
  name = "eps_gmean"
  || List.exists
       (fun (n, _, src) ->
         n = name
         && (match src with Layers.Count _ -> true | _ -> false)
         && not
              ((String.starts_with ~prefix:"serve-mixed" group
               || String.starts_with ~prefix:"train-recert" group)
              && String.starts_with ~prefix:"executor.pool_" name))
       Layers.metrics

(* ((group, metric), (seed, value) list), sorted *)
let seeded_groups records =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      List.iter
        (fun (k, v) ->
          let key = (r.group, k) in
          Hashtbl.replace tbl key ((r.seed, v) :: Option.value ~default:[] (Hashtbl.find_opt tbl key)))
        r.metrics)
    records;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let groups records =
  List.map (fun (k, sv) -> (k, Array.of_list (List.map snd sv))) (seeded_groups records)

(* Runs of one seed certify the same cells, so their counts must agree. *)
let repeated svs =
  List.for_all (fun (s, v) -> List.for_all (fun (s', v') -> s <> s' || v = v') svs) svs

let spread (q1, med, q3) = if med = 0.0 then 0.0 else (q3 -. q1) /. Float.abs med

let summarize ~title ~bounds records =
  let flags = ref 0 in
  Printf.printf "== %s: %d records\n" title (List.length records);
  List.iter
    (fun ((group, name), svs) ->
      let values = Array.of_list (List.map snd svs) in
      let ((q1, med, q3) as q) = Common.quartiles values in
      let s = spread q in
      let flag =
        match List.assoc_opt name bounds with
        | Some (_, bound) when (not (traced group)) && name <> "setup_s" && s > bound ->
            Printf.sprintf "  SPREAD > bound %g" bound
        | _ -> ""
      in
      let flag =
        if must_repeat group name && not (repeated svs) then flag ^ "  NOT REPEATED"
        else flag
      in
      if flag <> "" then incr flags;
      Printf.printf "%-24s %-24s median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.2f%% n=%d%s\n"
        group name med q1 q3 (100.0 *. s) (Array.length values) flag)
    (seeded_groups records);
  !flags

let compare_sets ~bounds base next =
  let flags = ref 0 in
  let gb = seeded_groups base in
  Printf.printf "== second set against the first\n";
  List.iter
    (fun (((group, name) as key), nsv) ->
      match List.assoc_opt key gb with
      | None -> ()
      | Some bsv ->
          let values svs = Array.of_list (List.map snd svs) in
          let mb = Common.median (values bsv) and mn = Common.median (values nsv) in
          let worse =
            match List.assoc_opt name bounds with
            | Some (better, bound) when mb <> 0.0 && not (traced group) ->
                Some ((if better = "lower" then mn -. mb else mb -. mn) /. Float.abs mb, bound)
            | _ -> None
          in
          let flag =
            match worse with
            | Some (w, bound) when w > bound ->
                Printf.sprintf "  WORSE by %.2f%% > bound %g" (100.0 *. w) bound
            | _ -> ""
          in
          let flag =
            if must_repeat group name && not (repeated (bsv @ nsv)) then flag ^ "  NOT REPEATED"
            else flag
          in
          if flag <> "" then incr flags;
          if worse <> None || flag <> "" then
            Printf.printf "%-24s %-24s median %-12.6g -> %-12.6g%s\n" group name mb mn flag)
    (seeded_groups next);
  !flags

let set_json records =
  let ints f = List.sort_uniq compare (List.map f records) in
  let num x = J.Num x and nums l = J.List (List.map (fun i -> J.Num (float_of_int i)) l) in
  let by_group = Hashtbl.create 8 in
  List.iter
    (fun ((group, name), values) ->
      let q1, med, q3 = Common.quartiles values in
      let entry =
        ( name,
          J.Obj
            [ ("median", num med); ("q1", num q1); ("q3", num q3);
              ("n", num (float_of_int (Array.length values))) ] )
      in
      Hashtbl.replace by_group group
        (entry :: Option.value ~default:[] (Hashtbl.find_opt by_group group)))
    (groups records);
  J.Obj
    [ ("cores", nums (ints (fun r -> r.cores)));
      ("seeds", nums (ints (fun r -> r.seed)));
      ( "workloads",
        J.Obj
          (List.sort compare
             (Hashtbl.fold (fun g entries acc -> (g, J.Obj (List.rev entries)) :: acc) by_group [])) )
    ]

let main args =
  let rec parse ((bench, json, first, second, in_second) as acc) = function
    | "--bench" :: f :: rest -> parse (f, json, first, second, in_second) rest
    | "--json" :: f :: rest -> parse (bench, Some f, first, second, in_second) rest
    | "--vs" :: rest -> parse (bench, json, first, second, true) rest
    | f :: rest ->
        parse
          (if in_second then (bench, json, first, f :: second, true)
           else (bench, json, f :: first, second, false))
          rest
    | [] -> acc
  in
  let bench, json, first, second, _ = parse ("BENCHMARK.json", None, [], [], false) args in
  if first = [] then begin
    prerr_endline
      "usage: perf.exe summarize [--bench BENCHMARK.json] [--json OUT] RUN... [--vs RUN...]";
    exit 2
  end;
  let bounds = read_bounds bench in
  let base = read_records (List.rev first) in
  let next = read_records (List.rev second) in
  let flags = summarize ~title:"first set" ~bounds base in
  let flags =
    if second = [] then flags
    else flags + summarize ~title:"second set" ~bounds next + compare_sets ~bounds base next
  in
  Option.iter
    (fun f ->
      Out_channel.with_open_text f (fun oc ->
          output_string oc
            (J.to_string
               (J.List (List.map set_json (if second = [] then [ base ] else [ base; next ]))));
          output_char oc '\n'))
    json;
  Printf.printf "%d flagged\n" flags;
  exit (if flags = 0 then 0 else 1)
