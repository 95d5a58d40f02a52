(** Backward-substituting symbolic analysis (Fast-Lin/CROWN-style) of
    the twin network — an extension beyond the paper (its reference [5]
    line of work) with distance variables.

    For each neuron's pre-activation [y] and twin distance [dy] the
    pass derives affine lower/upper bounds over the {e network input}
    box (respectively the input-perturbation box) by substituting the
    relaxed ReLU / chord relations layer by layer back to the input,
    and only then concretises.  Deferring concretisation preserves the
    correlations a sliding-window LP loses at its window boundary, so
    on nets deeper than the certifier window the bounds can be strictly
    tighter than the LP's.

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
    every previously proven bound.

    The certifier does not call it; [grc certify --method symbolic],
    the experiments and the training differential chain run
    {!certify}, and [Audit.Symbolic_check] audits {!analyse}. *)

type affine = {
  coeffs : float array;  (** over the frontier the form ranges over *)
  const : float;
}

val eval_range : affine -> Interval.t array -> Interval.t
(** Exact range of the affine form over a box.  Zero coefficients are
    skipped outright, so unbounded box components multiplied by a zero
    coefficient contribute nothing (no [0 * inf = NaN] hazard). *)

val meet_store :
  ?what:string -> ?neuron:int * int -> Interval.t -> Interval.t -> Interval.t
(** Meet a freshly derived symbolic interval into the stored one.  A
    disjoint pair means one of the analyses is unsound: under audit
    mode this reports an Error-level [symbolic/empty-meet] diagnostic
    (raising {!Audit_core.Diag.Audit_failure}); otherwise the store is
    kept unchanged as the conservative recovery. *)

val analyse : Nn.Network.t -> Bounds.t -> unit
(** Tightens every interval of the given bounds in place by meet,
    layer by layer: each neuron's forms are substituted back to the
    input (layer 0's are its own row) and concretised over the bounds'
    input and input-distance boxes.  The relaxation constants come from
    the store, so callers start from interval-propagated bounds; those
    that must keep a bound store bitwise untouched run it on a
    {!Bounds.copy}.  The substitutions performed are counted in the
    [symbolic.back_subs] metric and span counter. *)

val certify : Nn.Network.t -> input:Interval.t array -> delta:float ->
  float array
(** Zero-solve global-robustness bound per output: fresh bounds,
    interval propagation, then {!analyse}. *)
