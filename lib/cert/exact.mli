(** Exact global robustness by whole-network twin MILP — the [t_M] /
    [epsilon] baseline of the paper's Table I.  Exponential in the
    number of unstable ReLUs; only practical for small networks.

    Both engines, and {!Reluplex_style.global}, first run a relaxed
    Algorithm-1 pass ({!prepare}) to tighten every big-M constant: the
    optimum is unchanged, the search tree shrinks by orders of
    magnitude. *)

type result = {
  eps : float array;            (** per output: exact bound (or the proven
                                    over-approximation if a limit hit) *)
  per_output : Interval.t array;  (** range of the output distance *)
  exact : bool;                 (** all MILPs solved to optimality *)
  nodes : int;                  (** total branch & bound nodes *)
  runtime : float;
}

val prepare :
  Nn.Network.t -> input:Interval.t array -> delta:float ->
  Bounds.t * Subnet.view * int
(** The bounds of a {!Certifier.certify} run with margin 0, the
    whole-network cone over every output, and the output dimension. *)

val global_btne :
  ?milp_options:Milp.options -> Nn.Network.t -> input:Interval.t array ->
  delta:float -> result
(** Basic twin-network encoding: two explicit copies, all ReLUs big-M,
    solved by {!Milp}'s dual-guided branch & bound. *)

val global_itne :
  ?milp_options:Milp.options -> Nn.Network.t -> input:Interval.t array ->
  delta:float -> result
(** Exact MILP over the interleaving encoding (distance variables and
    exact distance relations).  Same optimum as {!global_btne}; used as
    a cross-check and in ablations. *)
