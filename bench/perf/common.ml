(* Shared plumbing of the benchmark: run context, clocks, statistics,
   failure accounting, scratch directories and result printing. *)

type ctx = {
  seed : int;
  seconds : float;   (* measured duration of the closed loop *)
  trace : bool;      (* per-layer run: Obs tracing and kernel timing on *)
  tmp : string;      (* this run's scratch directory, relative to the checkout *)
}

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---- failures ----

   Every check that fails prints one line on stderr and counts one
   failed operation; the workload reports the total. *)

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.eprintf "perf: FAIL %s\n%!" s)
    fmt

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* ---- samples and statistics ---- *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks of the raw samples; 0 when
   there are none. *)
let percentile a p =
  let a = sorted a in
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let r = p *. float_of_int (n - 1) in
    let i = int_of_float r in
    if i + 1 >= n then a.(n - 1) else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let mean a =
  if Array.length a = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

(* Python's [statistics.quantiles values ~n:4] with its default
   'exclusive' method, so [summarize] reads runs the same way as a
   Python script would. *)
let quartiles values =
  let a = sorted values in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "quartiles: no values"
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let j = max 1 (min (ld - 1) (i * (ld + 1) / 4)) in
      let delta = (i * (ld + 1)) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

let median values =
  let _, m, _ = quartiles values in
  m

let gmean a =
  if Array.length a = 0 then 0.0
  else exp (Array.fold_left (fun s x -> s +. log x) 0.0 a /. float_of_int (Array.length a))

(* ---- process facts ---- *)

(* Peak resident set size so far of this process, or of the child
   [pid], in MB (VmHWM). *)
let peak_rss_mb ?(pid = "self") () =
  let ic = open_in ("/proc/" ^ pid ^ "/status") in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> find ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) find in
  float_of_int kb /. 1024.0

let cores () = Domain.recommended_domain_count ()

(* ---- scratch directories ---- *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir ctx name =
  let dir = Filename.concat ctx.tmp name in
  Sys.mkdir dir 0o755;
  dir

(* ---- setup ----

   Workloads set up several times and report the median time.  Each
   set-up trains its networks into a fresh artifacts directory, so
   nothing is loaded from an earlier set-up or run; [check_digests]
   checks that every set-up trained bit-identical weights. *)
type trained = { id : string; net : Nn.Network.t; train_s : float }

let train_into ctx ~rep nets =
  Exp.Models.cache_dir := fresh_dir ctx (Printf.sprintf "artifacts%d" rep);
  List.map
    (fun (id, make) ->
      let net, train_s = time (fun () -> make id) in
      { id; net; train_s })
    nets

let check_digests ~workload reps =
  match reps with
  | [] -> []
  | first :: rest ->
      List.iter
        (fun rep ->
          List.iter2
            (fun a b ->
              if Nn.Network.digest a.net <> Nn.Network.digest b.net then
                fail "%s: set-up retrained %s with different weights" workload
                  a.id)
            first rep)
        rest;
      List.map (fun t -> (t.id, Nn.Network.digest t.net)) first

let mean_train_s reps =
  mean
    (Array.of_list
       (List.concat_map (List.map (fun t -> t.train_s)) reps))

(* ---- results ---- *)

type metric = { name : string; value : float; unit : string }

let m name value unit = { name; value; unit }

type result = {
  workload : string;
  digests : (string * string) list;
  end_to_end : metric list;  (* BENCHMARK.json end_to_end; untraced runs *)
  per_layer : metric list;   (* BENCHMARK.json per_layer; traced runs *)
  extra : metric list;       (* workload-specific numbers, printed and recorded *)
  attempted : int;
}

let json_metrics ms =
  Serve.Json.Obj
    (List.map
       (fun mt ->
         ( mt.name,
           Serve.Json.Obj
             [ ("value", Serve.Json.Num mt.value); ("unit", Serve.Json.Str mt.unit) ] ))
       ms)

(* Human lines, one record line for [summarize], and last the result
   line with the metrics BENCHMARK.json lists for this kind of run. *)
let print ctx r =
  let listed = if ctx.trace then r.per_layer else r.end_to_end in
  (* an operation can fail more than one check *)
  let failed = min !failures r.attempted in
  List.iter
    (fun (id, d) -> Printf.printf "%s digest %s %s\n" r.workload id d)
    r.digests;
  List.iter
    (fun mt -> Printf.printf "%s %s %.6g %s\n" r.workload mt.name mt.value mt.unit)
    (listed @ r.extra);
  let frac = float_of_int failed /. float_of_int (max 1 r.attempted) in
  Printf.printf "%s failed_frac %.6g ratio\n" r.workload frac;
  let num i = Serve.Json.Num (float_of_int i) in
  print_endline
    (Serve.Json.to_string
       (Serve.Json.Obj
          [ ("workload", Serve.Json.Str r.workload);
            ("seed", num ctx.seed);
            ("seconds", Serve.Json.Num ctx.seconds);
            ("trace", Serve.Json.Bool ctx.trace);
            ("cores", num (cores ()));
            ( "digests",
              Serve.Json.Obj
                (List.map (fun (id, d) -> (id, Serve.Json.Str d)) r.digests) );
            ("attempted", num r.attempted);
            ("failed", num failed);
            ( "metrics",
              json_metrics (listed @ r.extra @ [ m "failed_frac" frac "ratio" ]) )
          ]));
  print_endline
    (Serve.Json.to_string
       (Serve.Json.Obj
          [ ("correct", Serve.Json.Bool (failed = 0));
            ("attempted", num r.attempted);
            ("failed", num failed);
            ("metrics", json_metrics listed) ]));
  flush stdout

(* ---- closed loop ----

   Run [op 0], [op 1], ... back to back until at least [min_ops] ran and
   [seconds] elapsed; returns [(k, result, seconds)] per operation, in
   order. *)
let closed_loop ~seconds ~min_ops op =
  let t0 = now () in
  let rec go k acc =
    if k >= min_ops && now () -. t0 >= seconds then List.rev acc
    else begin
      let r, dt = time (fun () -> op k) in
      go (k + 1) ((k, r, dt) :: acc)
    end
  in
  go 0 []
