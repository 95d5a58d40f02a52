(** Wire protocol of the certification service.

    One frame = one line = one JSON object; requests carry a
    client-chosen numeric [id] that the matching response echoes, so a
    connection can pipeline requests.  The codec is total in both
    directions: [decode_request]/[decode_response] raise [Failure] with
    a descriptive message on anything malformed, and every value either
    side produces re-decodes to itself (round-trip property, tested).

    Requests:
    - [certify]: certify a network (inline text, or by digest of a
      previously loaded one) over a uniform input box;
    - [batch]: N certify queries in one request.  The response is a
      {e stream} of frames sharing the request id: one tagged
      [Batch_item] frame per query, in completion order (tags, not
      positions, identify the query), closed by a single [Batch_done]
      summary frame — so a client watching the connection sees results
      as they land;
    - [load]: register a network under its content digest and return
      the digest, so subsequent queries ship ~30 bytes instead of the
      whole model;
    - [stats]: serving counters, cache hit rate, queue depth, solve
      totals and latency histograms;
    - [ping]: liveness probe;
    - [shutdown]: graceful drain — stop accepting, finish queued work,
      persist the cache, exit. *)

type query = {
  q_net : string option;      (** inline canonical network text *)
  q_digest : string option;   (** ... or the digest of a loaded one *)
  q_delta : float;
  q_lo : float;
  q_hi : float;
  q_window : int;
  q_refine : Cert.Refine.rule;
  q_no_cache : bool;          (** bypass the result cache (still runs) *)
  q_deadline_ms : float option;
      (** drop the request if not {e finished} this many ms after the
          server accepts it; expiry mid-solve aborts the solve *)
}

val default_query : query
(** [delta = 1e-3], box [\[0, 1\]], window 2, no refinement, cache on,
    no deadline, no network. *)

type request =
  | Certify of query
  | Batch of query list       (** N queries, streamed tagged responses *)
  | Load of string            (** canonical network text *)
  | Stats
  | Ping
  | Shutdown

type result = {
  r_eps : float array;        (** per-output certified bound *)
  r_digest : string;          (** network the answer is for *)
  r_cached : bool;
  r_time_ms : float;          (** server-side handling time *)
  r_shard : int option;
      (** router annotation: index of the backend that answered; daemons
          leave it [None] and the field off the wire *)
  r_degraded : bool;
      (** router annotation: the answer was produced by a retry on
          another shard after a backend died; emitted only when true *)
}

type response =
  | Result of result          (** a [Certify] answer *)
  | Batch_item of { bi_item : int; bi_resp : (result, string) Stdlib.result }
      (** one streamed [Batch] answer, tagged with the 0-based position
          of its query in the request; item frames arrive in completion
          order *)
  | Batch_done of { bd_items : int; bd_errors : int; bd_degraded : bool }
      (** closes a [Batch] stream: every item frame has been sent;
          [bd_degraded] is set when any item needed a retry on another
          shard *)
  | Loaded of { digest : string; params : int; layers : int }
  | Stats_payload of Json.t   (** structured stats, schema-free *)
  | Ack                       (** ping / shutdown *)
  | Error of string

val encode_request : id:int -> request -> string
(** One line, no trailing newline. *)

val decode_request : Json.t -> int * request
(** Raises [Failure] on malformed or unknown requests, including a
    certify query with [delta < 0] or [lo > hi].  Fields the decoder
    does not know are ignored, among them the retired [branch],
    [symbolic] and [symbolic_mode].  The retired [cancel] op is an
    unknown op. *)

val encode_response : id:int -> response -> string

val decode_response : Json.t -> int * response
(** Result members the decoder does not know are ignored, among them
    the retired per-request solve counts [lp_solves], [lp_warm] and
    [milp_solves]. *)

val read_frame : Buffer.t -> Unix.file_descr -> Json.t option
(** Blocking helper for clients and tests: read from [fd] into the
    carry buffer until a full line is available, parse it; [None] on
    clean EOF with an empty buffer.  Raises [Failure] on malformed
    JSON or EOF mid-line.  A reset connection counts as EOF. *)

val read_lines : Buffer.t -> Unix.file_descr -> string list option
(** For event loops: one read from a readable [fd] into the carry
    buffer, returning the complete lines it finished (possibly none;
    a partial line stays in the buffer).  [None] at end of stream,
    including a reset or already-closed descriptor. *)

val write_frame : Unix.file_descr -> string -> unit
(** Write [line ^ "\n"] fully. *)
