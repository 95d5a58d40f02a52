(** Mini-batch training with SGD (momentum) or Adam. *)

type loss =
  | Mse            (** mean squared error, regression *)
  | Softmax_ce     (** softmax + cross entropy; targets one-hot *)

val loss_value_grad :
  loss -> pred:float array -> target:float array -> float * float array
(** Loss value and its gradient with respect to [pred]. *)

type optimizer =
  | Sgd of { lr : float; momentum : float }
  | Adam of { lr : float; beta1 : float; beta2 : float; eps : float }

val adam : ?lr:float -> unit -> optimizer
(** Adam with the usual defaults ([lr = 1e-3]). *)

type config = {
  loss : loss;
  optimizer : optimizer;
  epochs : int;
  batch_size : int;
  seed : int;             (** shuffling *)
}

val fit :
  ?log:(epoch:int -> loss:float -> unit) ->
  ?penalty:(grads:float array list array -> batch:int -> unit) ->
  config -> Network.t -> xs:float array array -> ys:float array array -> unit
(** Trains in place (layer parameter arrays are mutated).  Each epoch
    shuffles the samples (seeded by [config.seed]) and takes one
    optimiser step per mini-batch from the mean data-loss gradient.
    [penalty], when given, is called once per batch after the
    per-sample gradients are summed into [grads] and before the step,
    which scales [grads] by [1/batch]; it may add an extra gradient
    term (robust training adds the certified-bound surrogate there).
    [log] is called after every epoch with the mean data loss.
    Raises [Invalid_argument] on an empty or mismatched dataset or a
    non-positive [batch_size]. *)

val alloc_grads : Network.t -> float array list array
(** One {!Layer.alloc_grad_arrays} structure per layer — the
    accumulator shape taken by {!Grad.backprop_params} and by [fit]'s
    [penalty] hook. *)

val mean_loss :
  loss -> Network.t -> xs:float array array -> ys:float array array -> float

val accuracy : Network.t -> xs:float array array -> labels:int array -> float
(** Classification accuracy by argmax. *)
