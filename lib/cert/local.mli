(** Local robustness / output-range analysis around one input sample —
    the single-copy problems of the paper's Fig. 4 (top).

    Given a sample [x0] and perturbation bound [delta], computes the
    range of each network output over
    [{x' : ||x' - x0||_inf <= delta} inter domain]. *)

type result = {
  range : Interval.t array;  (** per output *)
  runtime : float;
}

val solve_range :
  milp_options:Milp.options -> Lp.Model.t -> (int * float) list ->
  Interval.t
(** Range of a linear objective over a MILP, by one minimisation and
    one maximisation; {!Interval.top} when either fails. *)

val lp_range :
  Plan.Engine.t -> (int * float) list -> Interval.t -> Interval.t
(** Range of a linear objective by one minimisation and one
    maximisation on a (warm) engine; the given fallback when either
    fails or the pair is crossed. *)

val propagate_boxes :
  milp_options:Milp.options -> window:int -> Nn.Network.t -> Bounds.t ->
  unit
(** Network decomposition of one copy: tightens every [y] (and the
    [x] it implies) in place, layer by layer, by exact MILPs over the
    sliding window ending at that layer.  Distance bounds are left
    untouched. *)

val exact :
  ?milp_options:Milp.options -> ?domain:Interval.t array ->
  Nn.Network.t -> x0:float array -> delta:float -> result
(** Whole-network MILP (big-M ReLUs). *)

val nd :
  ?milp_options:Milp.options -> ?domain:Interval.t array -> window:int ->
  Nn.Network.t -> x0:float array -> delta:float -> result
(** Network decomposition: exact MILP per sliding sub-network window,
    propagating boxes. *)

val lpr :
  ?domain:Interval.t array -> Nn.Network.t -> x0:float array ->
  delta:float -> result
(** Whole-network LP with triangle-relaxed ReLUs; ranges for the
    relaxation constants come from interval propagation. *)
