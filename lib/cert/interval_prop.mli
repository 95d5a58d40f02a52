(** Interval bound propagation for the twin-network.

    The cheapest sound analysis: pushes value intervals and distance
    intervals through every layer.  Used to initialise {!Bounds.t}
    (providing big-M constants and relaxation ranges) and as the
    weakest baseline in ablations. *)

val propagate : Nn.Network.t -> Bounds.t -> unit
(** Fills all [y]/[x]/[dy]/[dx] intervals of [bounds] from its [input]
    and [input_dist], layer by layer.  Existing intervals are
    overwritten only if the propagated ones are tighter ([meet]). *)

val propagate_box :
  Nn.Network.t -> input:Interval.t array -> delta:float -> Bounds.t
(** A fresh {!Bounds.t} over the input box with uniform input distance
    [\[-delta, delta\]], filled by {!propagate}: the starting point of
    every global-robustness analysis. *)

val certify : Nn.Network.t -> input:Interval.t array -> delta:float ->
  float array
(** Convenience: full interval-only global-robustness bound; returns
    one epsilon per network output. *)

val penalty_grad :
  ?scale:float -> Nn.Network.t -> input:Interval.t array -> delta:float ->
  float array list array -> float
(** The robust-training surrogate: returns the sum of {!certify} over
    the outputs (bitwise the same bound) and accumulates [scale]
    (default 1) times its parameter subgradient into per-layer
    {!Nn.Layer.alloc_grad_arrays} structures.  The reverse pass replays
    {!propagate}'s tape on a fresh {!Bounds.t}; every step is piecewise
    linear in the parameters, so this is a subgradient, with branch
    ties broken as in the forward pass. *)
