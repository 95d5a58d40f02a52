type t = { coeffs : (int * float) list; const : float }

let make coeffs const =
  let sorted = List.sort (fun (i, _) (j, _) -> compare i j) coeffs in
  (* merge duplicate indices, drop zeros *)
  let rec merge = function
    | (i, a) :: (j, b) :: rest when i = j -> merge ((i, a +. b) :: rest)
    | (i, a) :: rest ->
        if a = 0.0 then merge rest else (i, a) :: merge rest
    | [] -> []
  in
  { coeffs = merge sorted; const }

let zero = { coeffs = []; const = 0.0 }

let eval r lookup =
  List.fold_left (fun acc (i, c) -> acc +. (c *. lookup i)) r.const r.coeffs

let eval_vec r v = eval r (Array.get v)

let scale k r =
  if k = 0.0 then zero
  else { coeffs = List.map (fun (i, c) -> (i, k *. c)) r.coeffs;
         const = k *. r.const }

let add a b =
  make (a.coeffs @ b.coeffs) (a.const +. b.const)

let nnz r = List.length r.coeffs

let indices r = List.map fst r.coeffs

let pp fmt r =
  Format.fprintf fmt "@[<h>%g" r.const;
  List.iter (fun (i, c) -> Format.fprintf fmt " %+g*x%d" c i) r.coeffs;
  Format.fprintf fmt "@]"
