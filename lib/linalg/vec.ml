type t = float array

let create n x = Array.make n x

let zeros n = Array.make n 0.0

let init = Array.init

let copy = Array.copy

let dim = Array.length

let get (v : t) i = v.(i)

let set (v : t) i x = v.(i) <- x

let of_list = Array.of_list

let to_list = Array.to_list

let map = Array.map

let check_dims name x y =
  if Array.length x <> Array.length y then
    invalid_arg (Printf.sprintf "Vec.%s: dimension mismatch (%d vs %d)"
                   name (Array.length x) (Array.length y))

let map2 f x y =
  check_dims "map2" x y;
  Array.init (Array.length x) (fun i -> f x.(i) y.(i))

let add x y = map2 ( +. ) x y

let sub x y = map2 ( -. ) x y

let scale a x = Array.map (fun v -> a *. v) x

let dot x y =
  check_dims "dot" x y;
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. (x.(i) *. y.(i))
  done;
  !acc

let axpy a x y =
  check_dims "axpy" x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- y.(i) +. (a *. x.(i))
  done

let norm_inf x =
  let acc = ref 0.0 in
  Array.iter (fun v -> let a = Float.abs v in if a > !acc then acc := a) x;
  !acc

let dist_inf x y =
  check_dims "dist_inf" x y;
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    let a = Float.abs (x.(i) -. y.(i)) in
    if a > !acc then acc := a
  done;
  !acc

let max_elt x =
  if Array.length x = 0 then invalid_arg "Vec.max_elt: empty";
  Array.fold_left Float.max x.(0) x

let min_elt x =
  if Array.length x = 0 then invalid_arg "Vec.min_elt: empty";
  Array.fold_left Float.min x.(0) x

let argmax x =
  if Array.length x = 0 then invalid_arg "Vec.argmax: empty";
  let best = ref 0 in
  for i = 1 to Array.length x - 1 do
    if x.(i) > x.(!best) then best := i
  done;
  !best

let equal ?(eps = 1e-9) x y =
  Array.length x = Array.length y
  && (let ok = ref true in
      for i = 0 to Array.length x - 1 do
        if Float.abs (x.(i) -. y.(i)) > eps then ok := false
      done;
      !ok)

let pp fmt v =
  Format.fprintf fmt "[|";
  Array.iteri
    (fun i x ->
      if i > 0 then Format.fprintf fmt "; ";
      Format.fprintf fmt "%g" x)
    v;
  Format.fprintf fmt "|]"
