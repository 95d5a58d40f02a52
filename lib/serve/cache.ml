type t = {
  mutex : Mutex.t;
  ns : string option;
  table : (string, float array) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable loaded : int;
  mutable out : out_channel option;
}

(* Namespaced keys are plain prefixed keys: two daemons sharing one
   persistence file under different namespaces never serve each
   other's entries, and the file stays a valid mixed log. *)
let full t k = match t.ns with None -> k | Some s -> s ^ "@" ^ k

type counters = {
  hits : int;
  misses : int;
  entries : int;
  loaded : int;
}

(* --- keys --- *)

let bits x = Int64.to_string (Int64.bits_of_float x)

let key ~digest (q : Wire.query) =
  let refine =
    match q.Wire.q_refine with
    | Cert.Refine.No_refine -> "r0"
    | Cert.Refine.Count n -> Printf.sprintf "rc%d" n
    | Cert.Refine.Fraction f -> Printf.sprintf "rf%s" (bits f)
  in
  Printf.sprintf "%s|%s|%s|%s|w%d|%s|s%d|b%s" digest (bits q.Wire.q_delta)
    (bits q.Wire.q_lo) (bits q.Wire.q_hi) q.Wire.q_window refine
    (* [s1] belonged to a retired symbolic mode; the surviving modes
       keep their numbers so persisted entries still hit *)
    (match q.Wire.q_symbolic with
     | Cert.Certifier.Sym_off -> 0
     | Cert.Certifier.Sym_back -> 2)
    (Search.Strategy.to_string q.Wire.q_branch)

(* --- persistence ---

   One line per entry: "v1 <key> <bits,bits,...>", floats as Int64 bit
   patterns (decimal), so round-tripping is exact by construction. *)

let entry_line k eps =
  Printf.sprintf "v1 %s %s" k
    (String.concat ","
       (Array.to_list (Array.map (fun e -> bits e) eps)))

let parse_entry line =
  match String.split_on_char ' ' line with
  | [ "v1"; k; payload ] -> (
      try
        let eps =
          Array.of_list
            (List.map
               (fun s -> Int64.float_of_bits (Int64.of_string s))
               (String.split_on_char ',' payload))
        in
        Some (k, eps)
      with _ -> None)
  | _ -> None

let load_file table path =
  let n = ref 0 in
  (try
     let ic = open_in path in
     (try
        while true do
          match parse_entry (input_line ic) with
          | Some (k, eps) ->
              if not (Hashtbl.mem table k) then begin
                Hashtbl.replace table k eps;
                incr n
              end
          | None -> ()
        done
      with End_of_file -> ());
     close_in ic
   with Sys_error _ -> ());
  !n

let create ?ns ?path () =
  let table = Hashtbl.create 256 in
  let loaded = match path with Some p -> load_file table p | None -> 0 in
  let out =
    match path with
    | Some p ->
        Some (open_out_gen [ Open_append; Open_creat ] 0o644 p)
    | None -> None
  in
  { mutex = Mutex.create (); ns; table; hits = 0; misses = 0; loaded; out }

let find t k =
  let k = full t k in
  Mutex.lock t.mutex;
  let r =
    match Hashtbl.find_opt t.table k with
    | Some eps ->
        t.hits <- t.hits + 1;
        Some (Array.copy eps)
    | None ->
        t.misses <- t.misses + 1;
        None
  in
  Mutex.unlock t.mutex;
  r

let add t k eps =
  let k = full t k in
  Mutex.lock t.mutex;
  if not (Hashtbl.mem t.table k) then begin
    Hashtbl.replace t.table k (Array.copy eps);
    match t.out with
    | Some oc ->
        output_string oc (entry_line k eps);
        output_char oc '\n';
        flush oc
    | None -> ()
  end;
  Mutex.unlock t.mutex

let counters t =
  Mutex.lock t.mutex;
  let c =
    { hits = t.hits; misses = t.misses; entries = Hashtbl.length t.table;
      loaded = t.loaded }
  in
  Mutex.unlock t.mutex;
  c

let close t =
  Mutex.lock t.mutex;
  (match t.out with
   | Some oc ->
       (try close_out oc with Sys_error _ -> ());
       t.out <- None
   | None -> ());
  Mutex.unlock t.mutex
