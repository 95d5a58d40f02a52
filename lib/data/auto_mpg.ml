let n_features = 7

(* Gaussian from two uniforms *)
let gaussian rng =
  let u1 = Float.max 1e-12 (Random.State.float rng 1.0) in
  let u2 = Random.State.float rng 1.0 in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let clamp01 v = Float.max 0.0 (Float.min 1.0 v)

let generate ?(noise = 0.02) ~n ~seed () =
  let rng = Random.State.make [| seed; 0x4d50 |] in
  let xs = Array.make n [||] and ys = Array.make n [||] in
  for i = 0 to n - 1 do
    (* engine size drives most other features *)
    let size = Random.State.float rng 1.0 in
    let cylinders = clamp01 (size +. (0.15 *. gaussian rng)) in
    let displacement = clamp01 (size +. (0.1 *. gaussian rng)) in
    let horsepower = clamp01 ((0.8 *. size) +. (0.15 *. gaussian rng)) in
    let weight =
      clamp01 ((0.7 *. size) +. 0.15 +. (0.1 *. gaussian rng))
    in
    let acceleration =
      clamp01 (0.8 -. (0.5 *. horsepower) +. (0.12 *. gaussian rng))
    in
    let model_year = Random.State.float rng 1.0 in
    let origin = float_of_int (Random.State.int rng 3) /. 2.0 in
    (* mpg: smaller and newer cars are more efficient, with a mild
       nonlinearity in weight *)
    let mpg =
      0.9 -. (0.45 *. weight) -. (0.2 *. displacement)
      -. (0.1 *. (weight *. weight))
      +. (0.25 *. model_year) +. (0.05 *. origin)
      +. (noise *. gaussian rng)
    in
    xs.(i) <-
      [| cylinders; displacement; horsepower; weight; acceleration;
         model_year; origin |];
    ys.(i) <- [| clamp01 mpg |]
  done;
  { Dataset.xs; ys }
