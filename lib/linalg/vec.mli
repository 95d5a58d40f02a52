(** Dense float vectors.

    Thin wrappers over [float array] with the operations the solver and
    network code need.  All binary operations require equal lengths and
    raise [Invalid_argument] otherwise. *)

type t = float array

val create : int -> float -> t
(** [create n x] is a fresh vector of [n] copies of [x]. *)

val zeros : int -> t

val init : int -> (int -> float) -> t

val copy : t -> t

val dim : t -> int

val get : t -> int -> float

val set : t -> int -> float -> unit

val of_list : float list -> t

val to_list : t -> float list

val map : (float -> float) -> t -> t

val map2 : (float -> float -> float) -> t -> t -> t

val add : t -> t -> t

val sub : t -> t -> t

val scale : float -> t -> t

val dot : t -> t -> float

val axpy : float -> t -> t -> unit
(** [axpy a x y] performs [y <- a*x + y] in place. *)

val norm_inf : t -> float

val dist_inf : t -> t -> float
(** [dist_inf x y] is [norm_inf (sub x y)] without allocating. *)

val max_elt : t -> float
(** Largest element.  Raises [Invalid_argument] on empty vectors. *)

val min_elt : t -> float

val argmax : t -> int
(** Index of the largest element (first on ties). *)

val equal : ?eps:float -> t -> t -> bool
(** Component-wise equality within absolute tolerance [eps] (default 1e-9). *)

val pp : Format.formatter -> t -> unit
