(** Lint pass for the symbolic analysis ({!Cert.Symbolic}).

    Four checks, all returning diagnostics and never raising:

    - every interval the analysis produces is well-formed
      ({!Encoding.intervals});
    - per neuron and quantity, the symbolic interval is contained in
      plain interval propagation (both run independently from the same
      propagated base, so containment is evidence the meets compose
      soundly rather than true by aliasing);
    - when the certifier's LP-refined bound state is supplied, its
      intervals and the symbolic intervals must overlap — both enclose
      the same true reachable set, so an empty meet proves one of them
      unsound (note containment in {e either} direction is not
      required: a window LP and a global backward substitution are
      incomparable relaxations);
    - sampled soundness: deterministic concrete twin pairs forwarded
      through the real network must land inside the symbolic intervals
      ({!Encoding.bounds_soundness}).

    Unsound findings are [Error]-severity; [grc lint] fails on any. *)

val check :
  ?name:string ->
  ?samples:int ->
  ?tol:float ->
  ?certified:Cert.Bounds.t ->
  Nn.Network.t ->
  input:Cert.Interval.t array -> delta:float -> Audit_core.Diag.t list
(** Runs interval propagation and the symbolic analysis independently
    on fresh bound states for [net] over [input] with perturbation
    radius [delta], then applies the checks above.  [certified] is the
    bound state returned by {!Cert.Certifier.certify} for the same
    query.  Default [samples] is 32, [tol] 1e-6 (magnitude-scaled). *)
