module Int_set = Set.Make (Int)

type view = {
  net : Nn.Network.t;
  first : int;
  last : int;
  active : int array array;
  input_active : int array;
}

let cone net ~last ~targets ~window =
  let n = Nn.Network.n_layers net in
  if last < 0 || last >= n then invalid_arg "Subnet.cone: layer out of range";
  if window < 1 then invalid_arg "Subnet.cone: window < 1";
  let first = max 0 (last - window + 1) in
  let out_dim = Nn.Layer.out_dim (Nn.Network.layer net last) in
  Array.iter
    (fun j ->
      if j < 0 || j >= out_dim then
        invalid_arg "Subnet.cone: target out of range")
    targets;
  let depth = last - first + 1 in
  let active = Array.make depth [||] in
  active.(depth - 1) <- Array.copy targets;
  Array.sort compare active.(depth - 1);
  (* walk backward through the window collecting input dependencies *)
  let deps_of layer_idx neurons =
    let layer = Nn.Network.layer net layer_idx in
    Array.fold_left
      (fun acc j ->
        let row = Nn.Layer.linear_row layer j in
        List.fold_left
          (fun acc k -> Int_set.add k acc)
          acc
          (Linalg.Sparse_row.indices row))
      Int_set.empty neurons
  in
  for k = depth - 1 downto 1 do
    let deps = deps_of (first + k) active.(k) in
    active.(k - 1) <- Array.of_list (Int_set.elements deps)
  done;
  let input_deps = deps_of first active.(0) in
  { net; first; last; active;
    input_active = Array.of_list (Int_set.elements input_deps) }

let full net =
  let n = Nn.Network.n_layers net in
  cone net ~last:(n - 1)
    ~targets:(Array.init (Nn.Network.output_dim net) Fun.id) ~window:n

let depth v = v.last - v.first + 1
