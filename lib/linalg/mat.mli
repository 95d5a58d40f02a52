(** Dense row-major float matrices. *)

type t = {
  rows : int;
  cols : int;
  data : float array;  (** row-major, length [rows * cols] *)
}

val create : int -> int -> float -> t

val zeros : int -> int -> t

val identity : int -> t

val init : int -> int -> (int -> int -> float) -> t

val copy : t -> t

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val of_arrays : float array array -> t
(** Rows given as arrays; all rows must have equal length. *)

val row : t -> int -> Vec.t
(** Fresh copy of row [i]. *)

val col : t -> int -> Vec.t

val mul : t -> t -> t
(** Matrix product.  Raises [Invalid_argument] on inner-dim mismatch. *)

val mul_vec : t -> Vec.t -> Vec.t
(** [mul_vec a x] is [a * x]. *)

val tmul_vec : t -> Vec.t -> Vec.t
(** [tmul_vec a x] is [transpose a * x] without materialising the transpose. *)

val add : t -> t -> t

val sub : t -> t -> t

val scale : float -> t -> t

val map : (float -> float) -> t -> t

val swap_rows : t -> int -> int -> unit

val equal : ?eps:float -> t -> t -> bool

val pp : Format.formatter -> t -> unit
