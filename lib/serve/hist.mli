(** Latency histograms: fixed log₂ buckets over microseconds.

    Thread-safe (one mutex per histogram; recording is a few dozen
    nanoseconds, contention is irrelevant next to a solve).  Bucket [i]
    counts samples in [(2^(i-1), 2^i]] µs, so the full range 1 µs … ~1 h
    fits in 32 buckets; quantiles are read back as the upper edge of
    the bucket the quantile falls in, capped at the largest sample —
    within 2x of the truth, plenty for serving dashboards. *)

type t

val create : unit -> t

val add : t -> float -> unit
(** Record one sample, in seconds. *)

val count : t -> int

val mean : t -> float
(** Exact (a running sum is kept); [nan] when empty. *)

val max_seconds : t -> float
(** Largest recorded sample (exact); [0.] when empty. *)

val quantile : t -> float -> float
(** [quantile t q] for [q] in [0, 1], in seconds: upper edge of the
    bucket containing the [q]-quantile, capped at {!max_seconds};
    [nan] when empty. *)

val to_json : t -> Json.t
(** [{count, mean_ms, max_ms, p50_ms, p90_ms, p99_ms, buckets}] with
    [buckets] a list of [{le_ms, n}] for nonzero buckets. *)
