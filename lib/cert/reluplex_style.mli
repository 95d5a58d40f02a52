(** Exact global robustness by lazy ReLU case-splitting over the basic
    twin-network encoding — the [t_R] baseline of Table I.

    Like Reluplex/Planet, ReLUs start relaxed (triangle LP); the solver
    repeatedly solves the relaxation, evaluates the true network at the
    relaxation's optimiser to obtain feasible incumbents, and splits the
    most violated ReLU into its active/inactive phases.  Exhaustive, so
    exact, and exponential in the number of unstable ReLUs.

    The split tree is driven by the shared {!Search} core on an explicit
    DFS stack (never OCaml recursion, so deep trees cannot overflow the
    call stack), with each node a bound delta against its parent and one
    warm-started solver session serving every node of every output's
    tree. *)

type result = {
  eps : float array;
  per_output : Interval.t array;
  exact : bool;        (** every output's search completed *)
  nodes : int;         (** LP relaxations solved, all outputs *)
  pivots : int;        (** simplex pivots across all node LPs *)
  skipped_splits : int;
      (** ambiguous ReLU copies phase-fixed up front by a [stable]
          table, excluded from case-splitting for the whole search *)
  completed : bool array;
      (** per output: both directional searches exhausted their trees
          within the output's node-budget slice.  [eps.(j)] is exact iff
          [completed.(j)]; otherwise it is the best incumbent found. *)
  runtime : float;
}

val global :
  ?max_nodes:int -> ?presolve:bool ->
  ?stable:(int * int, Encode.phase) Hashtbl.t ->
  ?branch:Search.Strategy.t -> Nn.Network.t ->
  input:Interval.t array -> delta:float -> result
(** [presolve] (default true): tighten ReLU ranges with a relaxed
    Algorithm-1 pass before splitting.  [stable] maps (absolute layer,
    neuron) to a phase proven over the whole input box (e.g.
    {!Symbolic_back.analysis.stable}); the proof covers both explicit
    copies, so those ReLUs are fixed once and never split — the result
    is unchanged.

    [max_nodes] is the total budget; each of the [2 x out_dim]
    directional searches gets an equal slice, so an expensive early
    output cannot starve the later ones.

    [branch] (default [Most_fractional], the historical rule: split the
    worst-violated ReLU): [Dual_guided] weights each candidate split's
    violation by its slack column's |dual| sensitivity.  Every strategy
    explores until exhaustion, so the certified eps is unchanged — only
    the tree shape (node count) is. *)
