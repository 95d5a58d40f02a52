(** Dense float vectors.

    Thin wrappers over [float array] with the operations the network
    code needs.  Binary operations require equal lengths and raise
    [Invalid_argument] otherwise. *)

type t = float array

val add : t -> t -> t

val norm_inf : t -> float

val argmax : t -> int
(** Index of the largest element (first on ties). *)

val equal : ?eps:float -> t -> t -> bool
(** Component-wise equality within absolute tolerance [eps] (default 1e-9). *)
