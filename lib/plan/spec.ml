type range = { lo : float; hi : float }

type affine = {
  a_layer : int;
  a_neuron : int;
  a_quantity : Query.quantity;
  a_const : float;
  a_terms : (float * range) list;
}

(* Mirrors the certifier's interval arithmetic exactly (Interval.point /
   scale / add): the affine fast path must produce bit-identical floats
   whether it is evaluated here or by the legacy inline loop. *)
let eval_affine a =
  List.fold_left
    (fun acc (c, r) ->
      let lo, hi =
        (* a zero coefficient contributes nothing even over an unbounded
           range; [0. *. infinity] would be NaN *)
        if c = 0.0 then (0.0, 0.0)
        else if c > 0.0 then (c *. r.lo, c *. r.hi)
        else (c *. r.hi, c *. r.lo)
      in
      { lo = acc.lo +. lo; hi = acc.hi +. hi })
    { lo = a.a_const; hi = a.a_const }
    a.a_terms

type query_spec = {
  q : Query.t;
  terms : (Lp.Model.var * float) list;
}

type task = {
  label : string;
  model : Lp.Model.t;
  integer : bool;
  signature : string;
  probes : ((int * int) * Lp.Model.var) array;
}

type unit_of_work = {
  task_id : int;
  overrides : (Lp.Model.var * range) list;
  queries : query_spec array;
}

type t = {
  affine : affine array;
  tasks : task array;
  units : unit_of_work array;
  n_queries : int;
  n_encodes : int;
  dedup_hits : int;
  symbolic_conclusive : int;
  symbolic_seeded : int;
}

let empty =
  { affine = [||]; tasks = [||]; units = [||]; n_queries = 0; n_encodes = 0;
    dedup_hits = 0; symbolic_conclusive = 0; symbolic_seeded = 0 }

(* --- builder --- *)

type builder = {
  mutable b_affine : affine list;
  mutable b_tasks : task list;
  mutable b_n_tasks : int;
  mutable b_units : unit_of_work list;
  mutable b_n_queries : int;
  mutable b_dedup_hits : int;
  mutable b_symbolic_conclusive : int;
  mutable b_symbolic_seeded : int;
}

let builder () =
  { b_affine = []; b_tasks = []; b_n_tasks = 0; b_units = [];
    b_n_queries = 0; b_dedup_hits = 0; b_symbolic_conclusive = 0;
    b_symbolic_seeded = 0 }

let count_symbolic_conclusive b n =
  b.b_symbolic_conclusive <- b.b_symbolic_conclusive + n

let count_symbolic_seeded b n =
  b.b_symbolic_seeded <- b.b_symbolic_seeded + n

let add_affine b a = b.b_affine <- a :: b.b_affine

let add_task ?(probes = [||]) b ~label ~signature model =
  let id = b.b_n_tasks in
  b.b_tasks <-
    { label; model; integer = Lp.Model.integer_vars model <> []; signature;
      probes }
    :: b.b_tasks;
  b.b_n_tasks <- id + 1;
  id

let add_unit ?(dedup = false) b ~task_id ~overrides queries =
  b.b_units <- { task_id; overrides; queries } :: b.b_units;
  b.b_n_queries <- b.b_n_queries + Array.length queries;
  if dedup then b.b_dedup_hits <- b.b_dedup_hits + 1

let finish b =
  { affine = Array.of_list (List.rev b.b_affine);
    tasks = Array.of_list (List.rev b.b_tasks);
    units = Array.of_list (List.rev b.b_units);
    n_queries = b.b_n_queries;
    n_encodes = b.b_n_tasks;
    dedup_hits = b.b_dedup_hits;
    symbolic_conclusive = b.b_symbolic_conclusive;
    symbolic_seeded = b.b_symbolic_seeded }
