(** Exact global robustness by whole-network twin MILP — the [t_M] /
    [epsilon] baseline of the paper's Table I.  Exponential in the
    number of unstable ReLUs; only practical for small networks. *)

type result = {
  eps : float array;            (** per output: exact bound (or the proven
                                    over-approximation if a limit hit) *)
  per_output : Interval.t array;  (** range of the output distance *)
  exact : bool;                 (** all MILPs solved to optimality *)
  nodes : int;                  (** total branch & bound nodes *)
  skipped_splits : int;         (** big-M binaries eliminated or pinned by
                                    a [stable] phase table *)
  runtime : float;
}

val global_btne :
  ?milp_options:Milp.options -> ?presolve:bool ->
  ?stable:(int * int, Encode.phase) Hashtbl.t ->
  ?branch:Search.Strategy.t -> Nn.Network.t ->
  input:Interval.t array -> delta:float -> result
(** Basic twin-network encoding: two explicit copies, all ReLUs big-M.
    [presolve] (default true) first runs a relaxed Algorithm-1 pass to
    tighten all big-M constants — the optimum is unchanged, the search
    tree shrinks by orders of magnitude.  [stable] maps (absolute
    layer, neuron) to a phase proven over the whole input box (e.g.
    {!Symbolic_back.analysis.stable}); those ReLUs are encoded as
    linear rows in both copies instead of binaries, leaving the optimum
    unchanged.  [branch] overrides [milp_options]'s branching strategy. *)

val global_itne :
  ?milp_options:Milp.options -> ?presolve:bool ->
  ?stable:(int * int, Encode.phase) Hashtbl.t ->
  ?branch:Search.Strategy.t -> Nn.Network.t ->
  input:Interval.t array -> delta:float -> result
(** Exact MILP over the interleaving encoding (distance variables and
    exact distance relations).  Same optimum as {!global_btne}; used as
    a cross-check and in ablations.  [stable] pins the [z]/[zhat]
    indicator binaries of proven-phase ReLUs at the root instead of
    re-encoding, so branch & bound never branches on them. *)
