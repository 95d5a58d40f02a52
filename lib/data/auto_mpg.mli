(** Synthetic stand-in for the UCI Auto MPG dataset.

    The real dataset (392 cars, 7 features, fuel consumption target) is
    not available offline; this generator produces samples with the
    same schema, realistic feature correlations (bigger engines are
    heavier and thirstier, efficiency improves with model year) and
    observation noise.  Features and target are normalised to [0, 1],
    matching how the paper's networks consume them. *)

val n_features : int
(** 7: cylinders, displacement, horsepower, weight, acceleration,
    model year, origin. *)

val generate : ?noise:float -> n:int -> seed:int -> unit -> Dataset.t
(** [n] samples; [noise] is the target noise std (default 0.02 in
    normalised units). *)
