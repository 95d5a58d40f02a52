(** Network layers.

    Every layer computes a linear (affine) map followed by an optional
    ReLU.  Inputs and outputs are flat [float array]s; convolutional
    layers carry shape metadata and use channel-major flattening
    ([index = c*h*w + y*w + x]).

    Each layer exposes its linear map both as efficient forward /
    vector-Jacobian products (for inference and training) and as sparse
    per-neuron rows (for MILP/LP encodings). *)

type shape = { c : int; h : int; w : int }

val shape_size : shape -> int

type kind =
  | Dense of { weight : Linalg.Mat.t;  (** out_dim x in_dim *)
               bias : float array }
  | Conv2d of {
      in_shape : shape;
      out_chans : int;
      kh : int;
      kw : int;
      stride : int;
      pad : int;                       (** zero padding on all sides *)
      weight : float array;            (** oc*ic*kh*kw, oc-major *)
      bias : float array;              (** per out channel *)
    }
  | Avg_pool of { in_shape : shape; kh : int; kw : int; stride : int }
  | Normalize of { mul : float array; add : float array }
      (** per-component affine [y_i = mul_i * x_i + add_i] *)

type t = { kind : kind; relu : bool }

val in_dim : t -> int

val out_dim : t -> int

val out_shape : t -> shape option
(** Spatial output shape for conv/pool layers, [None] for dense/normalize. *)

val conv_out_shape : in_shape:shape -> out_chans:int -> kh:int -> kw:int ->
  stride:int -> pad:int -> shape

(** {1 Constructors} *)

val dense : ?relu:bool -> weight:Linalg.Mat.t -> bias:float array -> unit -> t

val dense_random :
  ?relu:bool -> rng:Random.State.t -> in_dim:int -> out_dim:int -> unit -> t
(** Glorot-uniform weights, zero bias. *)

val conv2d :
  ?relu:bool -> in_shape:shape -> out_chans:int -> kh:int -> kw:int ->
  stride:int -> pad:int -> weight:float array -> bias:float array -> unit -> t

val conv2d_random :
  ?relu:bool -> rng:Random.State.t -> in_shape:shape -> out_chans:int ->
  kh:int -> kw:int -> stride:int -> pad:int -> unit -> t

val avg_pool : in_shape:shape -> kh:int -> kw:int -> stride:int -> t

val normalize : mul:float array -> add:float array -> t

(** {1 Evaluation} *)

val forward_pre : t -> float array -> float array
(** Linear part only (pre-activation). *)

val forward : t -> float array -> float array
(** Linear part plus ReLU when marked. *)

val vjp_linear : t -> float array -> float array
(** [vjp_linear l dy] is [J^T dy] for the layer's linear map (the ReLU
    part is handled by the caller using the pre-activation values). *)

val linear_row : t -> int -> Linalg.Sparse_row.t
(** Affine row of output neuron [j] over the layer's inputs. *)

val grad_sinks :
  t -> float array list -> (int -> int -> float -> unit) * (int -> float -> unit)
(** [grad_sinks layer grads] inverts {!linear_row}'s indexing for
    arrays from {!alloc_grad_arrays}: it returns [(dcoeff, dconst)]
    where [dcoeff j k g] adds [g] to the gradient of the parameter that
    is coefficient [k] of row [j], and [dconst j g] to that of row
    [j]'s constant.  Pool layers have no parameters: both are no-ops. *)

(** {1 Parameters (training)} *)

val param_arrays : t -> float array list
(** The layer's mutable parameter arrays (empty for pool layers).
    Mutating them changes the layer. *)

val alloc_grad_arrays : t -> float array list
(** Zeroed arrays parallel to {!param_arrays}. *)

val accum_param_grads :
  t -> x:float array -> dy:float array -> float array list -> unit
(** Accumulate parameter gradients of the linear part into arrays
    from {!alloc_grad_arrays}; [x] is the layer input, [dy] the loss
    gradient at the pre-activation output. *)
