(** Typed bound queries.

    A query names one end of one certified range: the pre-activation
    value [Y], its twin distance [Dy] or the post-activation distance
    [Dx] of a specific neuron, in a specific direction.  Queries are
    what a {!Spec} plan promises to answer and what the {!Executor}
    reports results against. *)

type quantity = Y | Dy | Dx

type dir = Lo | Hi

type t = {
  layer : int;            (** absolute layer index in the network *)
  neuron : int;           (** output-neuron index within the layer *)
  quantity : quantity;
  dir : dir;
}

val make : layer:int -> neuron:int -> quantity -> dir -> t

val lp_dir : dir -> Lp.Model.dir
(** [Hi] asks for a maximum, [Lo] for a minimum. *)

val quantity_to_string : quantity -> string

val dir_to_string : dir -> string

val to_string : t -> string
(** E.g. ["dy[3][7].hi"]. *)

val same_cell : t -> t -> bool
(** Same layer, neuron and quantity (the two directions of one range). *)
