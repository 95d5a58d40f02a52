(** Plan executor: runs a {!Spec.t} over a pool of domain workers.

    The executor owns everything execution-side: the chunked [Domain]
    fan-out, per-worker warm-started solver sessions, and replay of
    deduplicated cones under overridden bounds; query counting and
    audit wiring live in {!Engine}.  Callers get back the raw
    per-query answers and apply them to their own state. *)

val parallel_map :
  int -> init:(unit -> 'c) -> 'a array -> ('c -> 'a -> 'b) -> 'b array
(** [parallel_map n_domains ~init items f] maps [f] over [items] in
    contiguous chunks, one chunk per spawned domain (capped at the item
    count; [n_domains <= 1] or a single item runs in the calling
    domain).  [init] builds one worker context (its mutable state,
    e.g. warm solver sessions).  Result order follows [items]
    regardless of worker scheduling.  Total over all valid inputs,
    including [n_domains] exceeding the item count.

    If [f] raises in any worker, every spawned domain is still joined
    (the other workers finish their chunks) before the first exception
    is re-raised, with its backtrace, in the calling domain; the
    contexts of a failed run are dropped. *)

type config = {
  domains : int;
  milp_options : Milp.options;
}

type request = {
  query : Query.t;
  label : string;                        (** owning task's label *)
  dir : Lp.Model.dir;
  terms : (Lp.Model.var * float) list;
}

type solve = request -> float option

type outcome = {
  affine : (Spec.affine * Spec.range) array;
      (** fast-path items paired with their exact interval evaluation *)
  solved : (Query.t * float option) array;
      (** one entry per planned query, in plan order (units in order,
          each unit's queries in order) *)
}

val run : ?hook:(solve -> solve) -> config -> Spec.t -> outcome
(** Execute a plan.  [hook] wraps the base per-query solve (for
    instrumentation, query interception in tests and experiments, or
    cooperative cancellation — the certification daemon's deadline
    checks raise from here); it runs inside worker domains, so it must
    be thread-safe.  An exception from the hook propagates once every
    worker is joined.

    Execution contract, relied on for reproducibility:
    - LP task matrices are compiled once per run and shared read-only;
      nothing — matrix, basis or session — outlives the run, so a run's
      answers do not depend on what ran before it;
    - a unit with empty [overrides] uses one persistent warm-started
      engine per worker per task (created on first use);
    - a unit with [overrides] gets a fresh cold-start engine over the
      shared matrix with the overridden bounds, so a deduplicated
      replay answers bitwise-identically to a fresh encoding of the
      same cone. *)
