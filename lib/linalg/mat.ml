type t = { rows : int; cols : int; data : float array }

let create rows cols x =
  if rows < 0 || cols < 0 then invalid_arg "Mat.create: negative dims";
  { rows; cols; data = Array.make (rows * cols) x }

let init rows cols f =
  let data = Array.make (rows * cols) 0.0 in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      data.((i * cols) + j) <- f i j
    done
  done;
  { rows; cols; data }

let get m i j = m.data.((i * m.cols) + j)

let of_arrays rows_arr =
  let rows = Array.length rows_arr in
  if rows = 0 then { rows = 0; cols = 0; data = [||] }
  else begin
    let cols = Array.length rows_arr.(0) in
    Array.iter
      (fun r ->
        if Array.length r <> cols then
          invalid_arg "Mat.of_arrays: ragged rows")
      rows_arr;
    init rows cols (fun i j -> rows_arr.(i).(j))
  end

let row m i = Array.sub m.data (i * m.cols) m.cols

let mul a b =
  if a.cols <> b.rows then
    invalid_arg
      (Printf.sprintf "Mat.mul: %dx%d * %dx%d" a.rows a.cols b.rows b.cols);
  let c = create a.rows b.cols 0.0 in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = get a i k in
      if aik <> 0.0 then
        for j = 0 to b.cols - 1 do
          c.data.((i * c.cols) + j)
          <- c.data.((i * c.cols) + j) +. (aik *. get b k j)
        done
    done
  done;
  c

let mul_vec a x =
  if a.cols <> Array.length x then
    invalid_arg "Mat.mul_vec: dimension mismatch";
  Array.init a.rows (fun i ->
      let acc = ref 0.0 in
      let base = i * a.cols in
      for j = 0 to a.cols - 1 do
        acc := !acc +. (a.data.(base + j) *. x.(j))
      done;
      !acc)

let tmul_vec a x =
  if a.rows <> Array.length x then
    invalid_arg "Mat.tmul_vec: dimension mismatch";
  let y = Array.make a.cols 0.0 in
  for i = 0 to a.rows - 1 do
    let xi = x.(i) in
    if xi <> 0.0 then begin
      let base = i * a.cols in
      for j = 0 to a.cols - 1 do
        y.(j) <- y.(j) +. (xi *. a.data.(base + j))
      done
    end
  done;
  y

let add a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg "Mat.add: dimension mismatch";
  { a with data = Array.mapi (fun i x -> x +. b.data.(i)) a.data }

let equal ?(eps = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols
  && (let ok = ref true in
      Array.iteri
        (fun i x -> if Float.abs (x -. b.data.(i)) > eps then ok := false)
        a.data;
      !ok)
