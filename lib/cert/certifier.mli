(** Algorithm 1 of the paper: efficient global-robustness
    over-approximation by ITNE + network decomposition + LP relaxation
    + selective refinement.

    Layer by layer, neuron by neuron, ranges of the pre-activation
    [y], its twin distance [dy], the post-activation [x] and its
    distance [dx] are computed by solving small relaxed sub-network
    problems over a sliding window; earlier layers' ranges feed later
    windows.  The result is a sound, deterministic over-approximation
    [eps >= eps_exact] of the output variation bound for every network
    output.

    Each layer pass is planned by {!Planner} (affine fast path, shared
    dense encodings, per-neuron conv cones, cone deduplication) and run
    by {!Plan.Executor} (domain fan-out, warm solver sessions); this
    module only applies the answers to {!Bounds}. *)

type refine_rule = Refine.rule =
  | No_refine
  | Count of int        (** refine the top-[r] neurons per sub-problem *)
  | Fraction of float   (** refine this fraction of relaxable neurons *)

type config = {
  window : int;             (** sub-network depth [W] *)
  refine : refine_rule;
  milp_options : Milp.options;  (** for refined sub-problems *)
  margin : float;           (** added to the reported epsilon for numerical
                                soundness *)
  mode : Encode.mode;       (** [Relaxed]: LPR (the paper's Algorithm 1);
                                [Exact]: pure ITNE network decomposition
                                with exact sub-MILPs *)
  domains : int;
      (** fan the independent per-neuron sub-problems of each layer out
          over this many OCaml domains (the paper's future-work
          parallelisation).  1 = sequential.  Results are not bitwise
          independent of the value: each domain worker keeps its own
          warm solver session over a contiguous chunk of queries, so a
          warm restart can land a last bit away from the sequential
          solve (on the 6x12 camera net at delta 0.00303, [domains = 2]
          certifies an eps one ulp below [domains = 1]; on Auto-MPG
          dnn5 over the box [0, 1] at delta 0.001, [domains = 2]
          certifies [0x1.9191670409d0bp-6] and [domains = 1]
          [0x1.9191670409d08p-6], 3 ulps apart).  What holds:
          the daemon, at one domain per worker, agrees bitwise with
          one-shot [domains = 1], and [scripts/check.sh] checks that
          [--domains 4] certifies the same eps as sequential on its
          lint net. *)
  dedup : bool;
      (** encode structurally identical cones once (translated conv/pool
          windows with bit-equal interior intervals) and replay them
          under the instance's input bounds.  Certified bounds are
          bit-identical with or without; see {!Planner.signature}. *)
}

val default_config : config
(** [window = 2], no refinement, {!Milp.default_options}, relaxed
    mode, margin 1e-6, one domain, cone deduplication on.  Refined
    sub-MILPs branch by {!Milp}'s one rule (dual-guided, falling back
    to most fractional). *)

type report = {
  eps : float array;        (** per network output: certified bound on
                                [|F(x')_j - F(x)_j|] *)
  bounds : Bounds.t;        (** all intermediate ranges *)
  runtime : float;          (** seconds *)
}
(** How much work a call did is recorded in {!Obs.Metrics} only:
    [certifier.bound_queries] (LP/MILP bound queries planned),
    [certifier.encoded_models] (distinct models encoded; fewer than the
    queries whenever cone deduplication fired), [certifier.dedup_hits]
    (units answered by replaying another cone's encoding), and the
    [engine.*], [milp.*] and [simplex.*] solve counters beneath them. *)

val certify :
  ?config:config ->
  ?solve_hook:(Plan.Executor.solve -> Plan.Executor.solve) ->
  Nn.Network.t -> input:Interval.t array -> delta:float ->
  report
(** Each call encodes, compiles and solves from scratch: nothing is
    kept between calls, so repeated calls answer bitwise-identically.
    [solve_hook] wraps every LP/MILP bound query — the certification
    daemon uses it to abandon a request mid-solve when its deadline
    expires. *)

val certify_box :
  ?config:config ->
  ?solve_hook:(Plan.Executor.solve -> Plan.Executor.solve) ->
  Nn.Network.t -> lo:float -> hi:float -> delta:float ->
  report
(** Convenience wrapper for a uniform input box. *)
