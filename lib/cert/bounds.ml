type t = {
  input : Interval.t array;
  input_dist : Interval.t array;
  y : Interval.t array array;
  x : Interval.t array array;
  dy : Interval.t array array;
  dx : Interval.t array array;
}

let create net ~input ~input_dist =
  let n = Nn.Network.n_layers net in
  if Array.length input <> Nn.Network.input_dim net then
    invalid_arg "Bounds.create: input dimension";
  if Array.length input_dist <> Nn.Network.input_dim net then
    invalid_arg "Bounds.create: input_dist dimension";
  let alloc () =
    Array.init n (fun i ->
        Array.make (Nn.Layer.out_dim (Nn.Network.layer net i)) Interval.top)
  in
  { input; input_dist; y = alloc (); x = alloc (); dy = alloc ();
    dx = alloc () }

let copy b =
  let deep = Array.map Array.copy in
  { input = Array.copy b.input; input_dist = Array.copy b.input_dist;
    y = deep b.y; x = deep b.x; dy = deep b.dy; dx = deep b.dx }

let box_domain net ~lo ~hi =
  Array.make (Nn.Network.input_dim net) (Interval.make lo hi)

let uniform_delta net delta =
  Array.make (Nn.Network.input_dim net) (Interval.make (-.delta) delta)

let val_in b i j =
  if i = 0 then b.input.(j) else b.x.(i - 1).(j)

let dist_in b i j =
  if i = 0 then b.input_dist.(j) else b.dx.(i - 1).(j)

let output_dist b net = b.dx.(Nn.Network.n_layers net - 1)
