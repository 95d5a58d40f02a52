(** The certification daemon.

    One process, one listening socket (unix-domain or loopback TCP):

    - the {e event loop} (calling thread of {!run}) accepts
      connections, frames line-delimited JSON requests, answers control
      requests ([load], [stats], [ping], [shutdown]) inline,
      and feeds [certify] requests into a bounded queue — a full queue
      is answered with an error, backpressure the client can see;
      [batch] requests enqueue one job per item, and item results
      stream back as tagged [Batch_item] frames in completion order,
      closed by a [Batch_done] summary once every item has answered;
    - {e worker domains} pop requests, answer them from the
      content-addressed result cache when possible, and otherwise run
      {!Cert.Certifier.certify} from scratch: nothing but the result
      cache outlives a request, so a worker's memory does not grow with
      the requests it has answered, and every answer is bitwise the
      one-shot certifier's with {!Cert.Certifier.default_config}'s one
      domain;
    - {e deadlines} are cooperative: every LP/MILP bound query
      re-checks the request's deadline via the certifier's solve hook,
      so an expired request abandons its solve within one query;
    - {e graceful drain}: SIGINT/SIGTERM (when [handle_signals]) or a
      [shutdown] request stop the accept loop, let workers finish every
      queued request, flush the cache file and return.

    Responses are written by whichever side produced them (workers
    write results directly); a per-connection mutex keeps frames whole,
    and a connection that disappears mid-request is simply dropped. *)

type addr = Client.addr =
  | Unix_path of string    (** unix-domain socket; the path is created
                               at start and unlinked on exit *)
  | Tcp of int             (** TCP on 127.0.0.1 at this port *)

type config = {
  addr : addr;
  workers : int;               (** worker domains (>= 1) *)
  queue_cap : int;             (** bounded request queue length *)
  cache_path : string option;  (** result-cache persistence file *)
  handle_signals : bool;       (** install SIGINT/SIGTERM drain handlers
                                   (process-wide — daemons only, not
                                   in-process test servers) *)
  verbose : bool;              (** per-request log lines on stderr *)
  metrics : bool;              (** include the process-wide {!Obs.Metrics}
                                   registry in [stats] responses *)
}

val default_config : addr -> config
(** 2 workers, queue of 64, no persistence,
    signals on, quiet, no metrics. *)

val run : config -> unit
(** Serve until shutdown.  Blocks the calling thread; raises [Failure]
    if the socket cannot be bound. *)

val listen_socket : addr -> Unix.file_descr
(** Bind + listen on [addr] (unlinking a stale unix-socket path first);
    shared with the shard router.  Raises [Failure] when the address
    cannot be bound. *)
