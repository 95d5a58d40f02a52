(** Dense row-major float matrices. *)

type t = {
  rows : int;
  cols : int;
  data : float array;  (** row-major, length [rows * cols] *)
}

val init : int -> int -> (int -> int -> float) -> t

val get : t -> int -> int -> float

val of_arrays : float array array -> t
(** Rows given as arrays; all rows must have equal length. *)

val row : t -> int -> Vec.t
(** Fresh copy of row [i]. *)

val mul : t -> t -> t
(** Matrix product.  Raises [Invalid_argument] on inner-dim mismatch. *)

val mul_vec : t -> Vec.t -> Vec.t
(** [mul_vec a x] is [a * x]. *)

val tmul_vec : t -> Vec.t -> Vec.t
(** [tmul_vec a x] is [transpose a * x] without materialising the transpose. *)

val add : t -> t -> t

val equal : ?eps:float -> t -> t -> bool
