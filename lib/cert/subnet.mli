(** Network decomposition: sliding sub-network windows restricted to the
    cone of influence of the target neurons.

    A view selects layers [first .. last] of a network and, for each of
    them, the subset of neurons that can influence the targets (all
    neurons for dense layers, a patch for convolutional ones). *)

type view = {
  net : Nn.Network.t;
  first : int;                 (** first layer index in the window *)
  last : int;                  (** last layer index (the target layer) *)
  active : int array array;    (** [active.(k)]: sorted output-neuron ids of
                                   layer [first + k] inside the cone *)
  input_active : int array;    (** neurons feeding layer [first]: indices
                                   into the network input when [first = 0],
                                   else into layer [first - 1]'s output *)
}

val cone : Nn.Network.t -> last:int -> targets:int array -> window:int -> view
(** [cone net ~last ~targets ~window] builds the view for the
    sub-network of depth [min window (last + 1)] ending at layer
    [last] with the given target neurons.  Raises [Invalid_argument]
    on out-of-range arguments. *)

val full : Nn.Network.t -> view
(** The whole network as one window: every layer, in the cone of every
    output. *)

val depth : view -> int
(** Number of layers in the window. *)

