type addr =
  | Unix_path of string
  | Tcp of int

exception Timeout of string

type t = {
  fd : Unix.file_descr;
  carry : Buffer.t;
  mutable next_id : int;
  mutable timeout_s : float option;
}

let sockaddr = function
  | Unix_path path -> Unix.ADDR_UNIX path
  | Tcp port -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)

let domain = function Unix_path _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET

let addr_str = function
  | Unix_path path -> path
  | Tcp port -> Printf.sprintf "127.0.0.1:%d" port

let set_timeout t timeout_s =
  (match timeout_s with
   | Some s when s <= 0.0 ->
       invalid_arg "Serve.Client.set_timeout: timeout must be positive"
   | _ -> ());
  t.timeout_s <- timeout_s;
  (* SO_RCVTIMEO 0 means "block forever" *)
  try
    Unix.setsockopt_float t.fd Unix.SO_RCVTIMEO
      (Option.value ~default:0.0 timeout_s)
  with Unix.Unix_error _ -> ()

(* The one connect loop: retry every 50 ms until the clock passes
   [deadline].  A signal that interrupts the wait ends it at once, so a
   process told to stop while its peer is still missing stops. *)
let dial ~deadline addr =
  let fail why =
    failwith
      (Printf.sprintf "cannot reach daemon at %s: %s" (addr_str addr) why)
  in
  let rec go () =
    let fd = Unix.socket (domain addr) Unix.SOCK_STREAM 0 in
    match Unix.connect fd (sockaddr addr) with
    | () -> fd
    | exception Unix.Unix_error (e, _, _) -> (
        (try Unix.close fd with Unix.Unix_error _ -> ());
        if Unix.gettimeofday () >= deadline then fail (Unix.error_message e);
        match Unix.select [] [] [] 0.05 with
        | _ -> go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) ->
            fail "interrupted while waiting")
  in
  go ()

let of_fd fd = { fd; carry = Buffer.create 4096; next_id = 1; timeout_s = None }

let connect ?timeout_s addr =
  let t = of_fd (dial ~deadline:neg_infinity addr) in
  (match timeout_s with Some _ -> set_timeout t timeout_s | None -> ());
  t

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* A read that exceeds SO_RCVTIMEO fails with EAGAIN/EWOULDBLOCK; turn
   that into the structured [Timeout] instead of hanging forever on a
   wedged daemon (and instead of a generic exception the caller cannot
   distinguish from a protocol error). *)
let read_frame t =
  try Wire.read_frame t.carry t.fd
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    raise
      (Timeout
         (Printf.sprintf "daemon did not answer within %gs"
            (Option.value ~default:0.0 t.timeout_s)))

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let rpc t req =
  let id = fresh_id t in
  Wire.write_frame t.fd (Wire.encode_request ~id req);
  match read_frame t with
  | None -> failwith "daemon closed the connection"
  | Some v ->
      let rid, resp = Wire.decode_response v in
      if rid <> id && rid <> 0 then
        failwith
          (Printf.sprintf "response id %d does not match request id %d" rid id);
      resp

let connect_retry ?(timeout_s = 10.0) addr =
  let t = of_fd (dial ~deadline:(Unix.gettimeofday () +. timeout_s) addr) in
  match rpc t Wire.Ping with
  | Wire.Ack -> t
  | _ | (exception Failure _) ->
      close t;
      failwith
        (Printf.sprintf "daemon at %s did not answer a ping" (addr_str addr))

let certify t q =
  match rpc t (Wire.Certify q) with
  | Wire.Result r -> r
  | Wire.Error msg -> failwith ("daemon error: " ^ msg)
  | _ -> failwith "unexpected response to certify"

let certify_batch t ?(on_item = fun _ _ -> ()) queries =
  let n = Array.length queries in
  let results = Array.make n (Stdlib.Error "no response") in
  if n = 0 then (results, false)
  else begin
    let id = fresh_id t in
    Wire.write_frame t.fd
      (Wire.encode_request ~id (Wire.Batch (Array.to_list queries)));
    let degraded = ref false in
    let finished = ref false in
    while not !finished do
      match read_frame t with
      | None -> failwith "daemon closed the connection mid-batch"
      | Some v -> (
          let rid, resp = Wire.decode_response v in
          if rid <> id && rid <> 0 then
            failwith
              (Printf.sprintf "batch response id %d does not match %d" rid id);
          match resp with
          | Wire.Batch_item { bi_item; bi_resp } ->
              if bi_item < 0 || bi_item >= n then
                failwith
                  (Printf.sprintf "batch item tag %d out of range" bi_item);
              results.(bi_item) <- bi_resp;
              on_item bi_item bi_resp
          | Wire.Batch_done { bd_degraded; _ } ->
              degraded := bd_degraded;
              finished := true
          | Wire.Error msg -> failwith ("daemon error: " ^ msg)
          | _ -> failwith "unexpected response during batch")
    done;
    (results, !degraded)
  end

let load t text =
  match rpc t (Wire.Load text) with
  | Wire.Loaded { digest; _ } -> digest
  | Wire.Error msg -> failwith ("daemon error: " ^ msg)
  | _ -> failwith "unexpected response to load"
