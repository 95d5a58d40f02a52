module Columns = struct
  (* column slices of the selected variables: for var [v],
     [(row, coeff)] pairs over the rows in which it appears *)
  type t = { cols : (int, (int * float) list) Hashtbl.t }

  let make model ~vars =
    let wanted = Hashtbl.create (Array.length vars) in
    Array.iter (fun v -> Hashtbl.replace wanted v ()) vars;
    let cols = Hashtbl.create (Array.length vars) in
    Array.iteri
      (fun r (c : Lp.Model.constr) ->
        List.iter
          (fun (v, a) ->
            if Hashtbl.mem wanted v then
              let prev = Option.value ~default:[] (Hashtbl.find_opt cols v) in
              Hashtbl.replace cols v ((r, a) :: prev))
          c.Lp.Model.row)
      (Lp.Model.constrs model);
    { cols }

  let sensitivity t ~duals v =
    if Array.length duals = 0 then 0.0
    else
      match Hashtbl.find_opt t.cols v with
      | None -> 0.0
      | Some entries ->
          List.fold_left
            (fun acc (r, a) ->
              if r < Array.length duals then
                acc +. Float.abs (duals.(r) *. a)
              else acc)
            0.0 entries
end

module Node = struct
  type 'a t = {
    parent : 'a t option;
    delta : (int * float * float) list;
    key : float;
    tag : 'a;
    depth : int;
  }

  let root tag = { parent = None; delta = []; key = neg_infinity; tag;
                   depth = 0 }

  let child parent ~tag ~delta ~key =
    { parent = Some parent; delta; key; tag; depth = parent.depth + 1 }

  let key n = n.key

  let depth n = n.depth

  let var_bounds n v =
    let rec up = function
      | None -> None
      | Some n -> (
          match
            List.find_opt (fun (v', _, _) -> v' = v) n.delta
          with
          | Some (_, lo, hi) -> Some (lo, hi)
          | None -> up n.parent)
    in
    up (Some n)

  let fold_tags n ~init ~f =
    let rec chain acc n =
      match n.parent with None -> n :: acc | Some p -> chain (n :: acc) p
    in
    List.fold_left (fun acc n -> f acc n.tag) init (chain [] n)
end

module Cursor = struct
  type 'a t = {
    set : int -> lo:float -> hi:float -> unit;
    root_lo : float array;
    root_hi : float array;
    mutable at : 'a Node.t;
  }

  let create ~set ~root_lo ~root_hi root = { set; root_lo; root_hi; at = root }

  (* effective bounds of [v] at [node]: innermost delta, else root *)
  let bounds_at cur node v =
    match Node.var_bounds node v with
    | Some (lo, hi) -> (lo, hi)
    | None -> (cur.root_lo.(v), cur.root_hi.(v))

  let goto cur target =
    (* collect the edges on both sides up to the lowest common
       ancestor; physical equality identifies it *)
    let rec split (a : 'a Node.t) (b : 'a Node.t) undo apply =
      if a == b then (undo, apply)
      else if a.Node.depth > b.Node.depth then
        match a.Node.parent with
        | Some p -> split p b (a :: undo) apply
        | None -> invalid_arg "Search.Cursor.goto: disjoint trees"
      else
        match b.Node.parent with
        | Some p -> split a p undo (b :: apply)
        | None -> invalid_arg "Search.Cursor.goto: disjoint trees"
    in
    let undo, apply = split cur.at target [] [] in
    (* undo deepest-first: each undone edge's vars revert to their
       effective bounds at the edge's parent *)
    List.iter
      (fun (n : 'a Node.t) ->
        let parent = Option.get n.Node.parent in
        List.iter
          (fun (v, _, _) ->
            let lo, hi = bounds_at cur parent v in
            cur.set v ~lo ~hi)
          n.Node.delta)
      (List.rev undo);
    (* [apply] was accumulated bottom-up, so it is already in
       ancestor->target order: deeper deltas override shallower ones *)
    List.iter
      (fun (n : 'a Node.t) ->
        List.iter (fun (v, lo, hi) -> cur.set v ~lo ~hi) n.Node.delta)
      apply;
    cur.at <- target
end

module Frontier = struct
  type 'a heap = { mutable data : 'a Node.t array; mutable size : int }

  type 'a t = Heap of 'a heap | Stack of 'a Node.t list ref

  let best_first () = Heap { data = [||]; size = 0 }

  let dfs () = Stack (ref [])

  let heap_push h n =
    if h.size = Array.length h.data then begin
      let cap = max 64 (2 * h.size) in
      let bigger = Array.make cap n in
      Array.blit h.data 0 bigger 0 h.size;
      h.data <- bigger
    end;
    let i = ref h.size in
    h.size <- h.size + 1;
    h.data.(!i) <- n;
    let continue = ref true in
    while !continue && !i > 0 do
      let p = (!i - 1) / 2 in
      if Node.key h.data.(p) > Node.key h.data.(!i) then begin
        let t = h.data.(p) in
        h.data.(p) <- h.data.(!i);
        h.data.(!i) <- t;
        i := p
      end
      else continue := false
    done

  let heap_pop h =
    let top = h.data.(0) in
    h.size <- h.size - 1;
    h.data.(0) <- h.data.(h.size);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.size && Node.key h.data.(l) < Node.key h.data.(!smallest) then
        smallest := l;
      if r < h.size && Node.key h.data.(r) < Node.key h.data.(!smallest) then
        smallest := r;
      if !smallest <> !i then begin
        let t = h.data.(!smallest) in
        h.data.(!smallest) <- h.data.(!i);
        h.data.(!i) <- t;
        i := !smallest
      end
      else continue := false
    done;
    top

  let push t n =
    match t with
    | Heap h -> heap_push h n
    | Stack s -> s := n :: !s

  let pop t =
    match t with
    | Heap h -> if h.size = 0 then None else Some (heap_pop h)
    | Stack s -> (
        match !s with
        | [] -> None
        | n :: rest ->
            s := rest;
            Some n)

  let is_empty t =
    match t with Heap h -> h.size = 0 | Stack s -> !s = []

  let size t = match t with Heap h -> h.size | Stack s -> List.length !s

  let min_key t =
    match t with
    | Heap h -> if h.size = 0 then infinity else Node.key h.data.(0)
    | Stack s ->
        List.fold_left (fun acc n -> Float.min acc (Node.key n)) infinity !s
end

type stats = {
  mutable nodes : int;
  mutable prunes : int;
  mutable incumbents : int;
}

let zero_stats () = { nodes = 0; prunes = 0; incumbents = 0 }

let m_nodes = Obs.Metrics.counter "search.nodes"
let m_prunes = Obs.Metrics.counter "search.prunes"
let m_incumbents = Obs.Metrics.counter "search.incumbents"

let note_incumbent stats =
  stats.incumbents <- stats.incumbents + 1;
  Obs.Metrics.add m_incumbents 1;
  Obs.Trace.count "incumbents" 1

type limits = { max_nodes : int; deadline : float }

let no_limits = { max_nodes = max_int; deadline = infinity }

type 'a step = Expand of 'a Node.t list | Halt

type stop = Exhausted | Pruned_out | Node_limit | Deadline | Halted

let run ?(span = "search.node") ?prune ?(halt_on_prune = false) ~limits
    ~stats ~frontier ~visit () =
  let rec loop () =
    if stats.nodes >= limits.max_nodes then Node_limit
    else if
      limits.deadline < infinity && Unix.gettimeofday () > limits.deadline
    then Deadline
    else
      match Frontier.pop frontier with
      | None -> Exhausted
      | Some node -> (
          let pruned =
            match prune with Some p -> p (Node.key node) | None -> false
          in
          if pruned then begin
            stats.prunes <- stats.prunes + 1;
            Obs.Metrics.add m_prunes 1;
            if halt_on_prune then Pruned_out else loop ()
          end
          else begin
            stats.nodes <- stats.nodes + 1;
            Obs.Metrics.add m_nodes 1;
            match Obs.Trace.with_span span (fun () -> visit node) with
            | Halt -> Halted
            | Expand children ->
                List.iter (Frontier.push frontier) children;
                loop ()
          end)
  in
  loop ()
