(** Content-addressed certification result cache.

    Keyed by everything that determines a certified answer: the network
    digest, the input box and delta (by float bit pattern), and the
    result-relevant certifier knobs (window, refinement rule).  The
    daemon certifies with {!Cert.Certifier.default_config}'s one domain,
    so the domain count is fixed and stays out of the key (a second
    domain can move the last bit of some answers).  Nor does the key
    hold what does not change answers (no-cache, deadlines).

    Optionally backed by an append-only on-disk file: every insert is
    appended (and flushed) as one line with the eps floats spelled as
    [Int64] bit patterns, so a daemon restart reloads byte-identical
    answers — a cache hit after a restart is still bitwise-equal to the
    original solve.  Unparseable lines are skipped on load (a torn tail
    from a crash must not poison the cache), and so are entries of an
    older key format, which could never hit again.

    Thread-safe: one mutex guards the table, counters and the file. *)

type t

val create : ?path:string -> unit -> t
(** [path]: persistence file, loaded now (if it exists) and appended to
    on every {!add}.  Daemons may share one file: equal keys hold
    bitwise-equal answers, so a restarted daemon may reuse any entry it
    loads, whichever daemon wrote it. *)

val key : digest:string -> Wire.query -> string
(** Deterministic cache key (single token, no spaces). *)

val find : t -> string -> float array option
(** Fresh copy; counts a hit or a miss. *)

val add : t -> string -> float array -> unit
(** Insert and persist; keeps the first answer on duplicate keys. *)

type counters = {
  hits : int;
  misses : int;
  entries : int;
  loaded : int;     (** entries restored from disk at [create] time *)
}

val counters : t -> counters

val close : t -> unit
(** Flush and close the persistence file (idempotent). *)
