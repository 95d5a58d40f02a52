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
    - [cancel]: best-effort cancellation of a queued or running request
      on the same connection;
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
  q_symbolic : Cert.Certifier.sym_mode;
      (** on the wire: [Sym_back] is the [symbolic_mode: "back"]
          extension, emitted only when on.  The retired forward mode
          ([symbolic: true] or [symbolic_mode: "fwd"]) decodes as
          [Sym_back]; [symbolic_mode] takes precedence over the boolean
          when both are present *)
  q_branch : Search.Strategy.t;
      (** on the wire: the [branch] string field (a
          {!Search.Strategy.to_string} name), emitted only when
          different from the historical [Most_fractional] default so old
          servers keep understanding default queries.  Names of
          retired strategies decode as the surviving strategy that
          answers them (the table is in DESIGN.md, "Service layer") *)
  q_no_cache : bool;          (** bypass the result cache (still runs) *)
  q_deadline_ms : float option;
      (** drop the request if not {e finished} this many ms after the
          server accepts it; expiry mid-solve aborts the solve *)
}

val default_query : query
(** [delta = 1e-3], box [\[0, 1\]], window 2, no refinement, no
    symbolic pre-pass, most-fractional branching, cache on, no deadline,
    no network. *)

type request =
  | Certify of query
  | Batch of query list       (** N queries, streamed tagged responses *)
  | Load of string            (** canonical network text *)
  | Stats
  | Cancel of int             (** id of the request to cancel *)
  | Ping
  | Shutdown

type result = {
  r_eps : float array;        (** per-output certified bound *)
  r_digest : string;          (** network the answer is for *)
  r_cached : bool;
  r_time_ms : float;          (** server-side handling time *)
  r_lp_solves : int;
  r_lp_warm : int;
  r_milp_solves : int;
  r_shard : int option;
      (** router annotation: index of the backend that answered; daemons
          leave it [None] and the field off the wire, keeping their
          frames byte-identical to the legacy protocol *)
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
  | Ack                       (** cancel / ping / shutdown *)
  | Error of string

val encode_request : id:int -> request -> string
(** One line, no trailing newline. *)

val decode_request : Json.t -> int * request
(** Raises [Failure] on malformed or unknown requests. *)

val encode_response : id:int -> response -> string

val decode_response : Json.t -> int * response

val read_frame : Buffer.t -> Unix.file_descr -> Json.t option
(** Blocking helper for clients and tests: read from [fd] into the
    carry buffer until a full line is available, parse it; [None] on
    clean EOF with an empty buffer.  Raises [Failure] on malformed
    JSON or EOF mid-line. *)

val write_frame : Unix.file_descr -> string -> unit
(** Write [line ^ "\n"] fully. *)
