type quantity = Y | Dy | Dx

type dir = Lo | Hi

type t = {
  layer : int;
  neuron : int;
  quantity : quantity;
  dir : dir;
}

let make ~layer ~neuron quantity dir = { layer; neuron; quantity; dir }

let quantity_to_string = function Y -> "y" | Dy -> "dy" | Dx -> "dx"

let dir_to_string = function Lo -> "lo" | Hi -> "hi"

let lp_dir = function Lo -> Lp.Model.Minimize | Hi -> Lp.Model.Maximize

let to_string q =
  Printf.sprintf "%s[%d][%d].%s" (quantity_to_string q.quantity) q.layer
    q.neuron (dir_to_string q.dir)

let same_cell a b =
  a.layer = b.layer && a.neuron = b.neuron && a.quantity = b.quantity
