(** Symbolic (affine) bound propagation for the twin network —
    a DeepPoly/CROWN-style analysis extended with distance variables.

    Every neuron's pre-activation [y] and twin distance [dy] get affine
    lower/upper bounds over the network input box (respectively the
    input-perturbation box).  ReLUs are relaxed per neuron with the
    classical triangle bounds; ReLU *distance* relations with the
    paper's chord bounds (Eq. 6).  Concretising the affine forms over
    the boxes yields per-neuron intervals that are never looser — and
    usually much tighter — than plain interval propagation, at
    [O(neurons * input_dim)] memory.

    This is an extension beyond the paper (its reference [5] line of
    work).  The certifier does not call it; {!Symbolic_back} starts from
    its bounds, [grc certify --method symbolic] and the experiments run
    {!certify}, and [Audit.Symbolic_check] audits it. *)

type affine = {
  coeffs : float array;  (** over the network-input dimensions *)
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

val propagate : Nn.Network.t -> Bounds.t -> unit
(** Tightens every interval of [bounds] in place (by meet), exactly
    like {!Interval_prop.propagate} but with affine reasoning.  The
    input and input-distance boxes of [bounds] define the analysis
    domain. *)

val certify : Nn.Network.t -> input:Interval.t array -> delta:float ->
  float array
(** Convenience: symbolic-only global-robustness bound per output. *)
