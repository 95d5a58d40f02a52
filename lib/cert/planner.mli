(** Layer-pass planner: turns the certifier's per-layer work into a
    declarative {!Plan.t}.

    The planner owns every planning decision of a layer pass:

    - the {b affine fast path}: a window with no interior ReLU is
      composed into one exact row per target and emitted as
      {!Plan.affine} items (no LP);
    - {b grouping}: dense/normalise layers share one whole-layer cone
      and one encoded model, conv/pool layers get per-neuron cones;
    - {b refinement}: scoring and selection of exactly-encoded ReLUs
      per cone ({!Refine});
    - {b cone deduplication}: structurally identical cones — translated
      conv/pool windows whose interior intervals agree bit-for-bit —
      are encoded once and replayed with the instance's input intervals
      as variable-bound overrides ({!signature}).

    Executing a plan with {!Plan.Executor.run} and applying the results
    certifies the same bits with or without deduplication. *)

type config = {
  window : int;
  refine : Refine.rule;
  mode : Encode.mode;
  dedup : bool;  (** deduplicate structurally identical cones *)
}

val groups : Nn.Network.t -> layer:int -> int array list
(** Target groups of a layer: one whole-layer group for dense and
    normalise layers, singleton groups per neuron for conv and pool. *)

val window_has_interior_relu : Subnet.view -> bool

val interior_relu_neurons : Subnet.view -> (int * int) list
(** (absolute layer, neuron) of every ReLU strictly inside the window. *)

val compose_affine :
  Subnet.view -> int -> with_bias:bool -> Linalg.Sparse_row.t
(** Back-substitute the window's affine rows into one row for target
    neuron [j] over the window inputs; only meaningful when
    {!window_has_interior_relu} is false.  [with_bias = false] composes
    the distance map (biases cancel between the twin copies). *)

val signature :
  mode:Encode.mode ->
  include_output_relu:bool ->
  refined:(int * int) list ->
  Bounds.t -> Subnet.view -> string
(** Stable cone signature: a canonical serialisation (neuron ids
    remapped to positions in the sorted active arrays, floats by bit
    pattern) of everything determining the encoded model {e except} the
    window input intervals.  Equal signatures imply {!Encode.itne}
    builds bit-identical models up to input variable bounds, which is
    exactly what a replay overrides. *)

val plan_values : config -> Bounds.t -> Nn.Network.t -> layer:int -> Plan.t
(** The y/dy pass of a layer (LpRelaxY): affine items for ReLU-free
    windows, otherwise one unit per target with queries in the order
    [y.hi; y.lo; dy.hi; dy.lo]. *)

val plan_dx : config -> Bounds.t -> Nn.Network.t -> layer:int -> Plan.t
(** The dx pass of a ReLU layer (LpRelaxX), for targets whose chord
    score is positive, with queries in the order [dx.hi; dx.lo].  The
    target's own distance relation is always encoded exactly (a
    2-binary MILP): strictly tighter than the pure chord relaxation at
    negligible cost.  Call after the layer's y/dy results and the interval ReLU transfer have
    been applied to [bounds]. *)
