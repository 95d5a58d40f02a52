type query = {
  q_net : string option;
  q_digest : string option;
  q_delta : float;
  q_lo : float;
  q_hi : float;
  q_window : int;
  q_refine : Cert.Refine.rule;
  q_symbolic : Cert.Certifier.sym_mode;
  q_branch : Search.Strategy.t;
  q_no_cache : bool;
  q_deadline_ms : float option;
}

let default_query =
  { q_net = None; q_digest = None; q_delta = 1e-3; q_lo = 0.0; q_hi = 1.0;
    q_window = 2; q_refine = Cert.Refine.No_refine;
    q_symbolic = Cert.Certifier.Sym_off;
    q_branch = Search.Strategy.Most_fractional;
    q_no_cache = false; q_deadline_ms = None }

type request =
  | Certify of query
  | Batch of query list
  | Load of string
  | Stats
  | Cancel of int
  | Ping
  | Shutdown

type result = {
  r_eps : float array;
  r_digest : string;
  r_cached : bool;
  r_time_ms : float;
  r_lp_solves : int;
  r_lp_warm : int;
  r_milp_solves : int;
  r_shard : int option;
  r_degraded : bool;
}

type response =
  | Result of result
  | Batch_item of { bi_item : int; bi_resp : (result, string) Stdlib.result }
  | Batch_done of { bd_items : int; bd_errors : int; bd_degraded : bool }
  | Loaded of { digest : string; params : int; layers : int }
  | Stats_payload of Json.t
  | Ack
  | Error of string

(* --- requests --- *)

let refine_fields = function
  | Cert.Refine.No_refine -> []
  | Cert.Refine.Count n -> [ ("refine", Json.Num (float_of_int n)) ]
  | Cert.Refine.Fraction f -> [ ("refine_frac", Json.Num f) ]

let query_fields q =
  List.concat
    [ (match q.q_net with Some s -> [ ("net", Json.Str s) ] | None -> []);
      (match q.q_digest with
       | Some d -> [ ("digest", Json.Str d) ]
       | None -> []);
      [ ("delta", Json.Num q.q_delta);
        ("lo", Json.Num q.q_lo);
        ("hi", Json.Num q.q_hi);
        ("window", Json.Num (float_of_int q.q_window)) ];
      refine_fields q.q_refine;
      (* protocol extensions: each is absent at the historical default *)
      (match q.q_symbolic with
       | Cert.Certifier.Sym_off -> []
       | Cert.Certifier.Sym_back -> [ ("symbolic_mode", Json.Str "back") ]);
      (if q.q_branch = Search.Strategy.Most_fractional then []
       else [ ("branch", Json.Str (Search.Strategy.to_string q.q_branch)) ]);
      (if q.q_no_cache then [ ("no_cache", Json.Bool true) ] else []);
      (match q.q_deadline_ms with
       | Some ms -> [ ("deadline_ms", Json.Num ms) ]
       | None -> []) ]

let encode_request ~id req =
  let fields =
    match req with
    | Certify q -> ("op", Json.Str "certify") :: query_fields q
    | Batch items ->
        [ ("op", Json.Str "batch");
          ("items",
           Json.List (List.map (fun q -> Json.Obj (query_fields q)) items)) ]
    | Load net -> [ ("op", Json.Str "load"); ("net", Json.Str net) ]
    | Stats -> [ ("op", Json.Str "stats") ]
    | Cancel target ->
        [ ("op", Json.Str "cancel");
          ("target", Json.Num (float_of_int target)) ]
    | Ping -> [ ("op", Json.Str "ping") ]
    | Shutdown -> [ ("op", Json.Str "shutdown") ]
  in
  Json.to_string (Json.Obj (("id", Json.Num (float_of_int id)) :: fields))

let get ~what o = function
  | Some v -> v
  | None -> failwith (Printf.sprintf "Serve.Wire: %s: bad or missing %s" o what)

(* Legacy spellings of removed options, decoded as the surviving value
   that answers them — the one place old clients' names are mapped.
   [violation] always branched exactly like most-fractional;
   [dy-partition] used the dual-guided refinement weights and probes,
   and every strategy certifies the same eps.  The forward symbolic
   mode ([symbolic: true], [symbolic_mode: "fwd"]) maps to the backward
   one, which never loosens a bound. *)
let legacy_branch = function
  | "violation" -> Some Search.Strategy.Most_fractional
  | "dy-partition" | "dy_partition" -> Some Search.Strategy.Dual_guided
  | _ -> None

let decode_query v =
  let num field default =
    match Json.member field v with
    | None -> default
    | Some j -> get ~what:field "certify" (Json.to_num j)
  in
  let refine =
    match (Json.member "refine" v, Json.member "refine_frac" v) with
    | Some j, _ ->
        Cert.Refine.Count (get ~what:"refine" "certify" (Json.to_int j))
    | None, Some j ->
        Cert.Refine.Fraction (get ~what:"refine_frac" "certify" (Json.to_num j))
    | None, None -> Cert.Refine.No_refine
  in
  let window =
    match Json.member "window" v with
    | None -> default_query.q_window
    | Some j -> get ~what:"window" "certify" (Json.to_int j)
  in
  if window < 1 then failwith "Serve.Wire: certify: window must be positive";
  let q_net = Json.mem_str "net" v and q_digest = Json.mem_str "digest" v in
  if q_net = None && q_digest = None then
    failwith "Serve.Wire: certify: one of net or digest is required";
  { q_net; q_digest;
    q_delta = num "delta" default_query.q_delta;
    q_lo = num "lo" default_query.q_lo;
    q_hi = num "hi" default_query.q_hi;
    q_window = window;
    q_refine = refine;
    q_symbolic =
      (match Json.mem_str "symbolic_mode" v with
       | Some "off" -> Cert.Certifier.Sym_off
       | Some ("back" | "fwd") -> Cert.Certifier.Sym_back
       | Some m ->
           failwith
             (Printf.sprintf "Serve.Wire: certify: unknown symbolic_mode %S" m)
       | None ->
           if Option.value ~default:false (Json.mem_bool "symbolic" v) then
             Cert.Certifier.Sym_back
           else Cert.Certifier.Sym_off);
    q_branch =
      (match Json.mem_str "branch" v with
       | None -> default_query.q_branch
       | Some s -> (
           match (Search.Strategy.of_string s, legacy_branch s) with
           | Some b, _ | None, Some b -> b
           | None, None ->
               failwith
                 (Printf.sprintf "Serve.Wire: certify: unknown branch %S" s)));
    q_no_cache = Option.value ~default:false (Json.mem_bool "no_cache" v);
    q_deadline_ms = Json.mem_num "deadline_ms" v }

let decode_request v =
  let id =
    match Json.mem_int "id" v with
    | Some id -> id
    | None -> failwith "Serve.Wire: request without integer id"
  in
  let req =
    match Json.mem_str "op" v with
    | Some "certify" -> Certify (decode_query v)
    | Some "batch" -> (
        match Json.mem_list "items" v with
        | Some items ->
            Batch
              (List.map
                 (fun item ->
                   match item with
                   | Json.Obj _ -> decode_query item
                   | _ -> failwith "Serve.Wire: batch item is not an object")
                 items)
        | None -> failwith "Serve.Wire: batch without items list")
    | Some "load" ->
        Load (get ~what:"net" "load" (Json.mem_str "net" v))
    | Some "stats" -> Stats
    | Some "cancel" ->
        Cancel (get ~what:"target" "cancel" (Json.mem_int "target" v))
    | Some "ping" -> Ping
    | Some "shutdown" -> Shutdown
    | Some op -> failwith (Printf.sprintf "Serve.Wire: unknown op %S" op)
    | None -> failwith "Serve.Wire: request without op"
  in
  (id, req)

(* --- responses --- *)

(* [r_shard]/[r_degraded] are router annotations: emitted only when
   set, so a daemon's frames are byte-identical to the legacy
   protocol and old clients simply ignore them. *)
let result_fields r =
  [ ("ok", Json.Bool true);
    ("eps",
     Json.List (Array.to_list (Array.map (fun e -> Json.Num e) r.r_eps)));
    ("digest", Json.Str r.r_digest);
    ("cached", Json.Bool r.r_cached);
    ("time_ms", Json.Num r.r_time_ms);
    ("lp_solves", Json.Num (float_of_int r.r_lp_solves));
    ("lp_warm", Json.Num (float_of_int r.r_lp_warm));
    ("milp_solves", Json.Num (float_of_int r.r_milp_solves)) ]
  @ (match r.r_shard with
     | Some s -> [ ("shard", Json.Num (float_of_int s)) ]
     | None -> [])
  @ if r.r_degraded then [ ("degraded", Json.Bool true) ] else []

let encode_response ~id resp =
  let fields =
    match resp with
    | Result r -> result_fields r
    | Batch_item { bi_item; bi_resp } ->
        ("item", Json.Num (float_of_int bi_item))
        ::
        (match bi_resp with
         | Ok r -> result_fields r
         | Stdlib.Error msg ->
             [ ("ok", Json.Bool false); ("error", Json.Str msg) ])
    | Batch_done { bd_items; bd_errors; bd_degraded } ->
        [ ("done", Json.Bool true);
          ("ok", Json.Bool true);
          ("items", Json.Num (float_of_int bd_items));
          ("errors", Json.Num (float_of_int bd_errors));
          ("degraded", Json.Bool bd_degraded) ]
    | Loaded { digest; params; layers } ->
        [ ("ok", Json.Bool true);
          ("digest", Json.Str digest);
          ("params", Json.Num (float_of_int params));
          ("layers", Json.Num (float_of_int layers)) ]
    | Stats_payload stats ->
        [ ("ok", Json.Bool true); ("stats", stats) ]
    | Ack -> [ ("ok", Json.Bool true) ]
    | Error msg -> [ ("ok", Json.Bool false); ("error", Json.Str msg) ]
  in
  Json.to_string (Json.Obj (("id", Json.Num (float_of_int id)) :: fields))

let decode_result v =
  match Json.member "eps" v with
  | None -> failwith "Serve.Wire: result without eps"
  | Some eps ->
      let eps =
        match Json.to_list eps with
        | Some vs ->
            Array.of_list
              (List.map
                 (fun j -> get ~what:"eps entry" "result" (Json.to_num j))
                 vs)
        | None -> failwith "Serve.Wire: result eps is not a list"
      in
      { r_eps = eps;
        r_digest = Option.value ~default:"" (Json.mem_str "digest" v);
        r_cached = Option.value ~default:false (Json.mem_bool "cached" v);
        r_time_ms = Option.value ~default:0.0 (Json.mem_num "time_ms" v);
        r_lp_solves = Option.value ~default:0 (Json.mem_int "lp_solves" v);
        r_lp_warm = Option.value ~default:0 (Json.mem_int "lp_warm" v);
        r_milp_solves =
          Option.value ~default:0 (Json.mem_int "milp_solves" v);
        r_shard = Json.mem_int "shard" v;
        r_degraded =
          Option.value ~default:false (Json.mem_bool "degraded" v) }

let decode_response v =
  let id =
    match Json.mem_int "id" v with
    | Some id -> id
    | None -> failwith "Serve.Wire: response without integer id"
  in
  let ok () =
    match Json.mem_bool "ok" v with
    | Some b -> b
    | None -> failwith "Serve.Wire: response without ok"
  in
  let resp =
    (* batch stream frames are discriminated first: an item frame may
       carry [ok = false] (a per-item failure), which must not decode
       as a whole-request [Error] *)
    match (Json.member "item" v, Json.member "done" v) with
    | Some _, _ ->
        let bi_item = get ~what:"item" "batch item" (Json.mem_int "item" v) in
        let bi_resp =
          if ok () then Ok (decode_result v)
          else
            Stdlib.Error
              (Option.value ~default:"unknown error" (Json.mem_str "error" v))
        in
        Batch_item { bi_item; bi_resp }
    | None, Some _ ->
        if not (ok ()) then
          failwith "Serve.Wire: batch done frame with ok = false";
        Batch_done
          { bd_items = get ~what:"items" "batch done" (Json.mem_int "items" v);
            bd_errors =
              Option.value ~default:0 (Json.mem_int "errors" v);
            bd_degraded =
              Option.value ~default:false (Json.mem_bool "degraded" v) }
    | None, None -> (
        if not (ok ()) then
          Error
            (Option.value ~default:"unknown error" (Json.mem_str "error" v))
        else
          match (Json.member "eps" v, Json.member "stats" v,
                 Json.member "params" v) with
          | Some _, _, _ -> Result (decode_result v)
          | None, Some stats, _ -> Stats_payload stats
          | None, None, Some _ ->
              Loaded
                { digest =
                    get ~what:"digest" "loaded" (Json.mem_str "digest" v);
                  params =
                    get ~what:"params" "loaded" (Json.mem_int "params" v);
                  layers = Option.value ~default:0 (Json.mem_int "layers" v) }
          | None, None, None -> Ack)
  in
  (id, resp)

(* --- framing --- *)

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

let write_frame fd line =
  write_all fd (line ^ "\n") 0 (String.length line + 1)

let read_frame carry fd =
  let take_line () =
    let s = Buffer.contents carry in
    match String.index_opt s '\n' with
    | Some i ->
        let line = String.sub s 0 i in
        Buffer.clear carry;
        Buffer.add_substring carry s (i + 1) (String.length s - i - 1);
        Some line
    | None -> None
  in
  let chunk = Bytes.create 65536 in
  let rec go () =
    match take_line () with
    | Some line -> Some (Json.of_string line)
    | None ->
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n = 0 then begin
          if Buffer.length carry > 0 then
            failwith "Serve.Wire: connection closed mid-frame"
          else None
        end
        else begin
          Buffer.add_subbytes carry chunk 0 n;
          go ()
        end
  in
  go ()
