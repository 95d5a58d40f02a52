(** Certification plans as data.

    A plan is the declarative output of a planner: everything a layer
    pass needs solved, with the planning decisions (affine fast path,
    shared encodings, cone deduplication) already made.  The
    {!Executor} consumes it; nothing here solves anything.

    Three item kinds:

    - {!affine}: a bound answered by exact interval evaluation of a
      composed affine row — no LP at all (a ReLU-free window);
    - {!task}: one encoded LP/MILP model, built once;
    - {!unit_of_work}: the parallelisable grain — a batch of queries
      against one task, optionally replayed under bound [overrides]
      (a structurally identical cone whose window inputs differ only
      in their interval data re-uses another cone's encoding). *)

type range = { lo : float; hi : float }

type affine = {
  a_layer : int;
  a_neuron : int;
  a_quantity : Query.quantity;   (** [Y] or [Dy] *)
  a_const : float;
  a_terms : (float * range) list;
      (** coefficient and input range, in row order *)
}

val eval_affine : affine -> range
(** Exact interval evaluation, bit-compatible with the certifier's
    interval arithmetic. *)

type query_spec = {
  q : Query.t;
  terms : (Lp.Model.var * float) list;  (** objective over the task model *)
}

type task = {
  label : string;          (** audit/diagnostic name *)
  model : Lp.Model.t;
  integer : bool;          (** has integer marks: solved by B&B *)
  signature : string;      (** cone signature ([""] if not deduplicable) *)
}

type unit_of_work = {
  task_id : int;                           (** index into [tasks] *)
  overrides : (Lp.Model.var * range) list;
      (** structural bounds replacing the model's own for this unit;
          empty for the task's defining instance *)
  queries : query_spec array;
}

type t = {
  affine : affine array;
  tasks : task array;
  units : unit_of_work array;
}

val n_queries : t -> int
(** LP/MILP bound queries across all units. *)

val n_encodes : t -> int
(** Distinct models encoded: the task count. *)

val dedup_hits : t -> int
(** Units replayed against another cone's model: those with bound
    [overrides]. *)

(** {1 Builder} *)

type builder

val builder : unit -> builder

val add_affine : builder -> affine -> unit

val add_task : builder -> label:string -> signature:string -> Lp.Model.t -> int
(** Registers an encoded model; returns its [task_id].  The [integer]
    flag is derived from the model's integrality marks. *)

val add_unit :
  builder -> task_id:int -> overrides:(Lp.Model.var * range) list ->
  query_spec array -> unit

val finish : builder -> t
(** Items appear in insertion order. *)
