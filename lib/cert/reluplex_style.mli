(** Exact global robustness by lazy ReLU case-splitting over the basic
    twin-network encoding — the [t_R] baseline of Table I.

    Like Reluplex/Planet, ReLUs start relaxed (triangle LP); the solver
    repeatedly solves the relaxation, evaluates the true network at the
    relaxation's optimiser to obtain feasible incumbents, and splits the
    ReLU whose violation, weighted by its slack column's |dual|
    sensitivity ({!Search.Columns}), is largest into its
    active/inactive phases.  Exhaustive, so
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
  completed : bool array;
      (** per output: both directional searches exhausted their trees
          within the output's node-budget slice.  [eps.(j)] is exact iff
          [completed.(j)]; otherwise it is the best incumbent found. *)
  runtime : float;
}

val global :
  ?max_nodes:int -> Nn.Network.t -> input:Interval.t array ->
  delta:float -> result
(** ReLU ranges are first tightened by the relaxed Algorithm-1 pass of
    {!Exact.prepare}, which sharpens the triangle relaxations.

    [max_nodes] is the total budget; each of the [2 x out_dim]
    directional searches gets an equal slice, so an expensive early
    output cannot starve the later ones. *)
