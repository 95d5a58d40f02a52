(** The shard router: one front socket, N certification daemons.

    The router speaks the exact same wire protocol as a daemon, so any
    {!Client} (or bare netcat) works against either unchanged:

    - [certify] routes by network digest — {!route_index} of the digest
      picks the shard, so repeated queries for one network keep hitting
      the same daemon (and its result cache);
    - [batch] items route {e independently}, salting the hash with the
      item index, so a single-network grid sweep fans out across every
      shard; tagged [Batch_item] frames merge back to the client in
      whatever order shards finish, and the router sends the closing
      [Batch_done];
    - [load] and [stats] fan out to all live shards: load everywhere so
      digest-only retries resolve after a failover, stats aggregated as
      [{"router": ..., "shards": [...]}] with per-shard queue depth,
      routed/retried counters and latency percentiles;
    - [shutdown] fans out (each daemon drains), then drains the router.

    {b Failure handling.}  A backend that hangs up or answers garbage
    is declared dead (never revived).  Its in-flight queries are
    re-dispatched to the next live shard; answers produced that way
    carry [degraded: true], and a batch stream that needed any retry
    closes with a [degraded] summary.  When no live shard remains, the
    affected queries get error responses — the stream still closes.

    Results pass through the router decode/re-encode unchanged: the
    Json codec prints floats bit-exactly, so a sharded sweep is
    bitwise-identical to one-shot certification (tested).  The router
    only {e annotates} results with [shard] and [degraded].

    The router never solves anything, so it is single-threaded: one
    [select] loop owns every socket.  SIGTERM/SIGINT (when
    [handle_signals]) stop the accept loop, let in-flight queries
    drain, and exit. *)

type config = {
  addr : Server.addr;            (** front socket clients connect to *)
  backends : Server.addr list;   (** daemon sockets, one per shard;
                                     shard index = list position *)
  handle_signals : bool;         (** install SIGTERM/SIGINT drain handlers *)
  verbose : bool;                (** per-event log lines on stderr *)
  connect_timeout_s : float;     (** startup: how long to wait for each
                                     backend to accept *)
}

val default_config : Server.addr -> backends:Server.addr list -> config
(** Signals on, quiet, 10s backend connect timeout. *)

val route_index : digest:string -> salt:int -> shards:int -> int
(** The routing function, exposed for tests and capacity planning:
    deterministic shard index in [\[0, shards)].  Single queries use
    [salt = 0]; batch item [i] uses [salt = i].  Dead shards are
    skipped by walking forward from this index. *)

val run : config -> unit
(** Connect to every backend with {!Client.dial} (raising [Failure] if
    one stays unreachable past [connect_timeout_s], or at once when a
    stop signal arrives while it waits), then serve until a drain
    completes.  Blocks the calling thread. *)
