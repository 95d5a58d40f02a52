(** Selective refinement: score the inaccuracy of each relaxed ReLU and
    pick the worst offenders for exact (binary) encoding.

    Following the paper, the triangle relaxation of a neuron with
    pre-activation range [\[a, b\]] scores [-b*a / (b - a)] (the widest
    gap between the relaxation's bounds), and the chord relaxation of a
    distance range [\[c, d\]] scores [max |c| |d|].  A neuron's combined
    score is the larger of the two applicable scores; stable neurons
    and degenerate distance relations score 0. *)

type rule = No_refine | Count of int | Fraction of float
(** Refinement budget: none, a fixed count, or a fraction of the
    window's candidate ReLUs (rounded to nearest). *)

val budget : rule -> (int * int) list -> int
(** Number of neurons to refine among [candidates] under the rule. *)

val triangle_score : Interval.t -> float

val chord_score : y:Interval.t -> dy:Interval.t -> float

val neuron_score : y:Interval.t -> dy:Interval.t -> float

val select :
  Bounds.t -> candidates:(int * int) list -> r:int -> (int * int) list
(** Top [r] candidates (absolute layer, neuron) by {!neuron_score},
    dropping zero-score neurons. *)
