(** Sparse linear rows: a list of [(index, coefficient)] pairs plus a
    constant.  Used to describe one neuron's pre-activation as an affine
    function of the previous layer, uniformly across dense and
    convolutional layers. *)

type t = {
  coeffs : (int * float) list;  (** strictly increasing indices *)
  const : float;
}

val make : (int * float) list -> float -> t
(** Sorts by index, merges duplicates, drops exact zeros. *)

val zero : t

val eval : t -> (int -> float) -> float
(** [eval r lookup] is [const + sum coeff_i * lookup i]. *)

val eval_vec : t -> Vec.t -> float

val scale : float -> t -> t

val add : t -> t -> t

val nnz : t -> int

val indices : t -> int list

val pp : Format.formatter -> t -> unit
