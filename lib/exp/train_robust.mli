(** Certifier-in-the-loop robust training ([grc train-robust]).

    Augments the standard training loss with the differentiable
    global-robustness surrogate ({!Cert.Interval_prop.penalty_grad},
    through {!Nn.Train.fit}'s penalty hook): each mini-batch update
    descends

    {v data_loss + lambda * sum_j eps_j(net, delta) v}

    where [eps_j] is the interval twin-distance bound on output [j]
    over the whole input box — the quantity the certifier
    over-approximates.  After every epoch the current network is
    re-certified {e through the sharded service} with one batched
    wire request (a [grc sweep]-style delta grid), shipping the
    network once via [load] and addressing every query by content
    digest, so unchanged networks and repeated deltas hit the
    service's result cache. *)

type recert = {
  rc_digest : string;             (** content digest the answers are for *)
  rc_grid : (float * float array) array;
      (** (delta, per-output certified eps) per grid cell *)
  rc_eps : float array;           (** eps at the target delta *)
  rc_cells : int;                 (** grid cells sent (one batch request) *)
  rc_cache_hits : int;            (** cells answered from the result cache *)
  rc_wall : float;                (** client-side wall seconds *)
  rc_throughput : float;          (** cells per second *)
  rc_degraded : bool;             (** some cell was retried on another shard *)
}

type epoch_record = {
  epoch : int;                    (** 0 = before any robust epoch *)
  train_loss : float;             (** mean data loss over the train set *)
  metric : float;                 (** mean data loss over the test set *)
  accuracy : float;               (** {!accuracy} on the test set *)
  surrogate : float;              (** interval penalty at the target delta *)
  recert : recert option;         (** [None] when no client was given *)
}

type config = {
  loss : Nn.Train.loss;
  optimizer : Nn.Train.optimizer;
  epochs : int;
  batch_size : int;
  seed : int;                     (** shuffling *)
  lambda : float;                 (** surrogate weight (0 = plain training) *)
  delta : float;                  (** target input perturbation bound *)
  lo : float;                     (** input box lower bound *)
  hi : float;                     (** input box upper bound *)
  grid : float list;              (** extra deltas re-certified per epoch *)
  window : int;                   (** certifier window for re-certification *)
  acc_tol : float;                (** regression accuracy tolerance *)
}

val default_config : config
(** Adam 1e-4, 5 epochs, batch 32, [lambda = 1e-3], [delta = 2/255],
    box [0, 1], grid [delta/2], window 2, [acc_tol = 0.1]. *)

val accuracy :
  loss:Nn.Train.loss -> acc_tol:float -> Nn.Network.t -> Data.Dataset.t ->
  float
(** Classification: argmax accuracy.  Regression: fraction of samples
    whose first-output absolute error is at most [acc_tol] — the
    "matched accuracy" metric of the camera/ACC case study. *)

val recertify :
  Serve.Client.t -> window:int -> lo:float -> hi:float ->
  deltas:float array -> target:float -> Nn.Network.t -> recert
(** Re-certify [net] over a delta grid as {e one} batched service
    request: [load] the network (content digest), send
    [Array.length deltas] digest-addressed queries as a single batch,
    and collect per-cell eps, cache hits and throughput.  [target]
    selects which grid delta fills [rc_eps].  Raises [Failure] if the
    service reports an error for any cell. *)

val run :
  ?client:Serve.Client.t ->
  ?on_epoch:(epoch_record -> Nn.Network.t -> unit) ->
  config -> Nn.Network.t -> train:Data.Dataset.t -> test:Data.Dataset.t ->
  epoch_record list
(** Train [net] in place for [config.epochs] epochs, re-certifying
    after every epoch when [client] is given.  The head of the returned
    list is epoch 0 — the untouched network, evaluated (and
    re-certified) the same way — so certified-eps trajectories start
    from the pre-training baseline.  [on_epoch] fires after each
    record (including epoch 0) with the network as it was measured. *)

(** {1 Helpers for the CLI, bench and tests} *)

val certified_eps : epoch_record -> float
(** Largest per-output certified eps at the target delta; [nan] when
    the epoch was not re-certified. *)

val epoch_line : epoch_record -> string
(** The one-line epoch report [grc train-robust] and [train-bench]
    print (no trailing newline). *)

val epoch_json : epoch_record -> Serve.Json.t
(** The per-epoch JSON record [grc train-robust --json] and
    [BENCH_train.json] write: losses, accuracy, surrogate and, when
    re-certified, the digest, [certified_eps] ({!certified_eps}), the
    per-output [eps], the [grid] cells, cache hits, wall time,
    throughput and the degraded flag. *)


type family =
  | Auto_mpg
  | Digits of { image : int }
  | Camera of { h : int; w : int }

val family_data : family -> Data.Dataset.t * Data.Dataset.t * Nn.Train.loss
(** The train/test splits (and loss) matching {!Models.auto_mpg_net},
    {!Models.digits_net} and {!Models.camera_net} — same generator
    seeds, so a cached model's training data is reproduced exactly. *)

val with_local_service :
  ?cache_path:string -> ?workers:int -> (Serve.Client.t -> 'a) -> 'a
(** Spawn an in-process certification daemon on a private unix socket,
    run the continuation against a connected client, then drain and
    join the daemon (also on exceptions). *)
