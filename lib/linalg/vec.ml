type t = float array

let add x y =
  if Array.length x <> Array.length y then
    invalid_arg (Printf.sprintf "Vec.add: dimension mismatch (%d vs %d)"
                   (Array.length x) (Array.length y));
  Array.init (Array.length x) (fun i -> x.(i) +. y.(i))

let norm_inf x =
  let acc = ref 0.0 in
  Array.iter (fun v -> let a = Float.abs v in if a > !acc then acc := a) x;
  !acc

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
