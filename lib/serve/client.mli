(** Blocking client for the certification daemon (or shard router —
    both speak the same protocol).

    One connection, synchronous request/response (ids are assigned
    internally and checked on receipt).  Safe to use one connection per
    domain; a single connection is not safe to share. *)

type addr =
  | Unix_path of string    (** unix-domain socket *)
  | Tcp of int             (** TCP on 127.0.0.1 at this port *)
(** Where a daemon or router listens; {!Server.addr} is the same type. *)

type t

exception Timeout of string
(** A read exceeded the configured socket timeout.  Distinct from
    [Failure] so callers can tell "the daemon is wedged" from "the
    daemon answered garbage" and retry or fail over accordingly. *)

val sockaddr : addr -> Unix.sockaddr

val domain : addr -> Unix.socket_domain
(** The socket address and domain to connect or bind to; the daemon's
    and the router's listening sockets use them too. *)

val addr_str : addr -> string
(** The socket path, or [127.0.0.1:PORT]. *)

val dial : deadline:float -> addr -> Unix.file_descr
(** A stream socket connected to [addr], retrying every 50 ms until
    the wall clock passes [deadline] (one attempt when it has passed).
    Raises [Failure] naming the address when it stays unreachable, and
    at once when a signal interrupts the wait between attempts. *)

val connect : ?timeout_s:float -> addr -> t
(** One connection attempt; raises [Failure] when the daemon is
    unreachable.  [timeout_s]: read timeout applied to every subsequent
    receive (see {!set_timeout}); without it reads block indefinitely. *)

val set_timeout : t -> float option -> unit
(** Set or clear the per-read socket timeout ([SO_RCVTIMEO]).  Any
    receive that waits longer raises {!Timeout} instead of hanging on a
    stalled daemon.  Raises [Invalid_argument] on non-positive values. *)

val connect_retry : ?timeout_s:float -> addr -> t
(** {!dial} for up to [timeout_s] (default 10s), then one ping
    round-trip; for scripts that just started the daemon.  Raises
    [Failure] when the daemon stays unreachable or does not answer the
    ping. *)

val rpc : t -> Wire.request -> Wire.response
(** One round-trip.  Raises [Failure] on transport or protocol
    errors (a server-reported error is returned as [Wire.Error], not
    raised), {!Timeout} on a read timeout. *)

val certify : t -> Wire.query -> Wire.result
(** [rpc] + unwrapping; raises [Failure] on a server-reported error. *)

val certify_batch :
  t ->
  ?on_item:(int -> (Wire.result, string) result -> unit) ->
  Wire.query array ->
  (Wire.result, string) result array * bool
(** Send all queries as one [batch] request and block until the stream
    closes.  [on_item] fires as each tagged item frame arrives (in
    completion order — this is the streamed-progress hook); the
    returned array is indexed by query position.  The boolean is the
    stream's [degraded] flag: some item needed a retry on another
    shard after a backend died.  Raises [Failure] on transport or
    protocol errors, {!Timeout} on a read timeout. *)

val load : t -> string -> string
(** Register a network (canonical text); returns its digest. *)

val close : t -> unit
