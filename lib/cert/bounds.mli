(** Per-network bound state for twin-network certification.

    For every layer [i] and neuron [j] we track intervals on the
    pre-activation [y], post-activation [x], and their twin-copy
    distances [dy = y' - y], [dx = x' - x].  The certifier initialises
    these by interval propagation and then tightens them layer by
    layer. *)

type t = {
  input : Interval.t array;        (** network input domain [X] *)
  input_dist : Interval.t array;   (** input perturbation, usually
                                       [\[-delta, delta\]]^m0 *)
  y : Interval.t array array;      (** [y.(i).(j)]: layer i pre-activation *)
  x : Interval.t array array;      (** post-activation *)
  dy : Interval.t array array;
  dx : Interval.t array array;
}

val create : Nn.Network.t -> input:Interval.t array ->
  input_dist:Interval.t array -> t
(** All layer intervals initialised to {!Interval.top}. *)

val copy : t -> t
(** Deep copy: mutating the copy's intervals leaves the original
    untouched (the analysis shadow used by the certifier's symbolic
    pre-pass). *)

val box_domain : Nn.Network.t -> lo:float -> hi:float -> Interval.t array
(** Uniform input box of the network's input dimension. *)

val uniform_delta : Nn.Network.t -> float -> Interval.t array
(** [\[-delta, delta\]] per input component. *)

val val_in : t -> int -> int -> Interval.t
(** [val_in b i j]: interval of input [j] to layer [i] (the input
    domain when [i = 0], otherwise layer [i-1]'s post-activation). *)

val dist_in : t -> int -> int -> Interval.t

val output_dist : t -> Nn.Network.t -> Interval.t array
(** Distance intervals of the network output layer. *)
