type range = { lo : float; hi : float }

type affine = {
  a_layer : int;
  a_neuron : int;
  a_quantity : Query.quantity;
  a_const : float;
  a_terms : (float * range) list;
}

(* Mirrors the certifier's interval arithmetic exactly (Interval.point /
   scale / add), so the affine fast path produces the same floats as
   interval evaluation of the composed row. *)
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
}

let n_queries p =
  Array.fold_left (fun n u -> n + Array.length u.queries) 0 p.units

let n_encodes p = Array.length p.tasks

let dedup_hits p =
  Array.fold_left (fun n u -> if u.overrides = [] then n else n + 1) 0 p.units

(* --- builder --- *)

type builder = {
  mutable b_affine : affine list;
  mutable b_tasks : task list;
  mutable b_n_tasks : int;
  mutable b_units : unit_of_work list;
}

let builder () = { b_affine = []; b_tasks = []; b_n_tasks = 0; b_units = [] }

let add_affine b a = b.b_affine <- a :: b.b_affine

let add_task b ~label ~signature model =
  let id = b.b_n_tasks in
  b.b_tasks <-
    { label; model; integer = Lp.Model.integer_vars model <> []; signature }
    :: b.b_tasks;
  b.b_n_tasks <- id + 1;
  id

let add_unit b ~task_id ~overrides queries =
  b.b_units <- { task_id; overrides; queries } :: b.b_units

let finish b =
  { affine = Array.of_list (List.rev b.b_affine);
    tasks = Array.of_list (List.rev b.b_tasks);
    units = Array.of_list (List.rev b.b_units) }
