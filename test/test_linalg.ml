(* Unit and property tests for the dense/sparse linear algebra kernels. *)

module Vec = Linalg.Vec
module Mat = Linalg.Mat
module Sparse_row = Linalg.Sparse_row

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_float ?(eps = 1e-9) msg expected actual =
  if not (feq ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* --- generators --- *)

let float_gen = QCheck.Gen.float_range (-10.0) 10.0

let vec_gen n = QCheck.Gen.(array_size (return n) float_gen)

let mat_gen rows cols =
  QCheck.Gen.map
    (fun data -> { Mat.rows; cols; data })
    (QCheck.Gen.array_size (QCheck.Gen.return (rows * cols)) float_gen)

let qtest ?(count = 100) name gen prop =
  Test_seed.to_alcotest
    (QCheck.Test.make ~count ~name (QCheck.make gen) prop)

(* --- Vec --- *)

let test_vec_basics () =
  let v = [| 1.0; -2.0; 3.0 |] in
  check_float "norm_inf" 3.0 (Vec.norm_inf v);
  Alcotest.(check int) "argmax" 2 (Vec.argmax v)

let test_vec_dim_mismatch () =
  Alcotest.check_raises "add mismatch"
    (Invalid_argument "Vec.add: dimension mismatch (2 vs 3)") (fun () ->
      ignore (Vec.add [| 0.0; 0.0 |] [| 0.0; 0.0; 0.0 |]))

let vec_props =
  [ qtest "norm_inf scale"
      QCheck.Gen.(pair float_gen (vec_gen 6))
      (fun (a, x) ->
        feq ~eps:1e-6
          (Vec.norm_inf (Array.map (fun v -> a *. v) x))
          (Float.abs a *. Vec.norm_inf x));
    qtest "add sub roundtrip"
      QCheck.Gen.(pair (vec_gen 4) (vec_gen 4))
      (fun (x, y) ->
        Vec.equal ~eps:1e-9 (Array.map2 ( -. ) (Vec.add x y) y) x) ]

(* --- Mat --- *)

let test_mat_identity () =
  let m = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let id = Mat.init 2 2 (fun i j -> if i = j then 1.0 else 0.0) in
  Alcotest.(check bool) "I*m = m" true (Mat.equal (Mat.mul id m) m);
  Alcotest.(check bool) "m*I = m" true (Mat.equal (Mat.mul m id) m)

let test_mat_mul_known () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Mat.of_arrays [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let c = Mat.mul a b in
  check_float "c00" 19.0 (Mat.get c 0 0);
  check_float "c01" 22.0 (Mat.get c 0 1);
  check_float "c10" 43.0 (Mat.get c 1 0);
  check_float "c11" 50.0 (Mat.get c 1 1)

let test_mat_mul_mismatch () =
  let a = Mat.init 2 3 (fun _ _ -> 0.0) in
  let b = Mat.init 2 3 (fun _ _ -> 0.0) in
  Alcotest.check_raises "mul mismatch"
    (Invalid_argument "Mat.mul: 2x3 * 2x3") (fun () -> ignore (Mat.mul a b))

let test_mat_ragged () =
  Alcotest.check_raises "ragged"
    (Invalid_argument "Mat.of_arrays: ragged rows") (fun () ->
      ignore (Mat.of_arrays [| [| 1.0 |]; [| 1.0; 2.0 |] |]))

(* reference transpose built from [Mat.init]/[Mat.get] *)
let transpose m = Mat.init m.Mat.cols m.Mat.rows (fun i j -> Mat.get m j i)

let mat_props =
  [ qtest "transpose involution" (mat_gen 3 4) (fun m ->
        Mat.equal (transpose (transpose m)) m);
    qtest "tmul_vec = transpose mul_vec"
      QCheck.Gen.(pair (mat_gen 3 4) (vec_gen 3))
      (fun (m, x) ->
        Vec.equal ~eps:1e-6 (Mat.tmul_vec m x)
          (Mat.mul_vec (transpose m) x));
    qtest "mul_vec distributes"
      QCheck.Gen.(triple (mat_gen 3 3) (vec_gen 3) (vec_gen 3))
      (fun (m, x, y) ->
        Vec.equal ~eps:1e-5
          (Mat.mul_vec m (Vec.add x y))
          (Vec.add (Mat.mul_vec m x) (Mat.mul_vec m y)));
    qtest "mul associative"
      QCheck.Gen.(triple (mat_gen 2 3) (mat_gen 3 2) (mat_gen 2 2))
      (fun (a, b, c) ->
        Mat.equal ~eps:1e-4 (Mat.mul (Mat.mul a b) c) (Mat.mul a (Mat.mul b c)))
  ]

(* --- Sparse_row --- *)

let test_sparse_merge () =
  let r = Sparse_row.make [ (3, 1.0); (1, 2.0); (3, 4.0); (2, 0.0) ] 7.0 in
  Alcotest.(check int) "nnz" 2 (Sparse_row.nnz r);
  Alcotest.(check (list int)) "indices" [ 1; 3 ] (Sparse_row.indices r);
  check_float "eval" (7.0 +. 2.0 +. 5.0)
    (Sparse_row.eval r (fun _ -> 1.0))

let test_sparse_eval_vec () =
  let r = Sparse_row.make [ (0, 2.0); (2, -1.0) ] 0.5 in
  check_float "eval_vec" (0.5 +. 2.0 -. 3.0)
    (Sparse_row.eval_vec r [| 1.0; 99.0; 3.0 |])

let test_sparse_scale_zero () =
  let r = Sparse_row.make [ (0, 2.0) ] 3.0 in
  let z = Sparse_row.scale 0.0 r in
  Alcotest.(check int) "zero nnz" 0 (Sparse_row.nnz z);
  check_float "zero const" 0.0 z.Sparse_row.const

let sparse_props =
  [ qtest "add = pointwise eval"
      QCheck.Gen.(pair (vec_gen 5) (vec_gen 5))
      (fun (a, b) ->
        let row coeffs = Sparse_row.make
            (List.mapi (fun i c -> (i, c)) (Array.to_list coeffs)) 1.0 in
        let ra = row a and rb = row b in
        let x = Array.init 5 (fun i -> float_of_int i -. 2.0) in
        feq ~eps:1e-6
          (Sparse_row.eval_vec (Sparse_row.add ra rb) x)
          (Sparse_row.eval_vec ra x +. Sparse_row.eval_vec rb x));
    qtest "scale = eval scale"
      QCheck.Gen.(pair float_gen (vec_gen 4))
      (fun (k, a) ->
        let r = Sparse_row.make
            (List.mapi (fun i c -> (i, c)) (Array.to_list a)) 0.7 in
        let x = [| 1.0; -1.0; 0.5; 2.0 |] in
        feq ~eps:1e-6
          (Sparse_row.eval_vec (Sparse_row.scale k r) x)
          (k *. Sparse_row.eval_vec r x)) ]

let suites =
  [ ( "linalg:vec",
      [ Alcotest.test_case "basics" `Quick test_vec_basics;
        Alcotest.test_case "dim mismatch" `Quick test_vec_dim_mismatch ]
      @ vec_props );
    ( "linalg:mat",
      [ Alcotest.test_case "identity" `Quick test_mat_identity;
        Alcotest.test_case "mul known" `Quick test_mat_mul_known;
        Alcotest.test_case "mul mismatch" `Quick test_mat_mul_mismatch;
        Alcotest.test_case "ragged" `Quick test_mat_ragged ]
      @ mat_props );
    ( "linalg:sparse_row",
      [ Alcotest.test_case "merge duplicates" `Quick test_sparse_merge;
        Alcotest.test_case "eval_vec" `Quick test_sparse_eval_vec;
        Alcotest.test_case "scale by zero" `Quick test_sparse_scale_zero ]
      @ sparse_props ) ]
