(** Backward-substituting symbolic analysis (Fast-Lin/CROWN-style) of
    the twin network.

    Where {!Symbolic.propagate} pushes affine forms forward and
    concretises them eagerly at every layer, this pass derives, for
    each neuron's pre-activation [y] and twin distance [dy], affine
    lower/upper bounds over the {e network input} box (respectively the
    input-perturbation box) by substituting the relaxed ReLU / chord
    relations layer by layer back to the input, and only then
    concretises.  Deferring concretisation preserves the correlations
    a sliding-window LP loses at its window boundary, so backward
    bounds are pointwise at least as tight as the forward ones (they
    are met into the forward-tightened store) — and on nets deeper than
    the certifier window they can be strictly tighter than the LP's.

    The recurrence per substituted layer, for an accumulated
    coefficient [c] on a post-activation:

    - value, upper side ([c > 0]): [x <= b (y - a) / (b - a)]
      (triangle); lower side: [x >= lambda y] with the DeepPoly area
      rule [lambda = 1] iff [b >= -a];
    - distance (both chord sides increasing in [dy], Eq. 6 of the
      paper): [dx <= u (dy - l) / (u - l)] and
      [dx >= l (u - dy) / (u - l)] with [l = min(0, c)],
      [u = max(0, d)] from [dy]'s concrete range [\[c, d\]].

    Soundness: every substitution replaces a quantity by a valid affine
    lower/upper bound chosen by the sign of its coefficient, so the
    final forms bound the true [y]/[dy] over the exact twin-network
    semantics; concretised results are met into the store, which keeps
    every previously proven bound. *)

val analyse : Nn.Network.t -> Bounds.t -> unit
(** Runs the forward pass ({!Symbolic.propagate}) and then the
    backward substitution, tightening every interval of the given
    bounds in place by meet.  Callers that must keep a bound store
    bitwise untouched run it on a {!Bounds.copy}.  The substitutions
    performed are counted in the [symbolic.back_subs] metric and span
    counter. *)

val certify : Nn.Network.t -> input:Interval.t array -> delta:float ->
  float array
(** Zero-solve global-robustness bound per output: fresh bounds,
    interval propagation, then {!analyse}. *)
