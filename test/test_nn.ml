(* Tests for layers, networks, gradients (vs finite differences),
   training, and serialisation. *)

module Layer = Nn.Layer
module Network = Nn.Network

let feq ?(eps = 1e-6) a b = Float.abs (a -. b) <= eps

let rng0 () = Random.State.make [| 99 |]

(* --- dense layers --- *)

let test_dense_forward () =
  let w = Linalg.Mat.of_arrays [| [| 1.0; 2.0 |]; [| -1.0; 0.5 |] |] in
  let l = Layer.dense ~relu:true ~weight:w ~bias:[| 0.5; -0.25 |] () in
  let y = Layer.forward_pre l [| 1.0; 1.0 |] in
  Alcotest.(check bool) "pre0" true (feq y.(0) 3.5);
  Alcotest.(check bool) "pre1" true (feq y.(1) (-0.75));
  let x = Layer.forward l [| 1.0; 1.0 |] in
  Alcotest.(check bool) "relu0" true (feq x.(0) 3.5);
  Alcotest.(check bool) "relu1" true (feq x.(1) 0.0)

let test_dense_dims () =
  let l =
    Layer.dense_random ~rng:(rng0 ()) ~in_dim:3 ~out_dim:5 ()
  in
  Alcotest.(check int) "in" 3 (Layer.in_dim l);
  Alcotest.(check int) "out" 5 (Layer.out_dim l)

(* --- linear_row must agree with forward_pre for every layer kind --- *)

let check_rows_match name layer input =
  let y = Layer.forward_pre layer input in
  for j = 0 to Layer.out_dim layer - 1 do
    let row = Layer.linear_row layer j in
    let v = Linalg.Sparse_row.eval_vec row input in
    if not (feq ~eps:1e-9 v y.(j)) then
      Alcotest.failf "%s: row %d gives %.9g, forward gives %.9g" name j v
        y.(j)
  done

let random_input rng n =
  Array.init n (fun _ -> Random.State.float rng 2.0 -. 1.0)

let test_rows_dense () =
  let rng = rng0 () in
  let l = Layer.dense_random ~rng ~in_dim:7 ~out_dim:4 () in
  check_rows_match "dense" l (random_input rng 7)

let test_rows_conv () =
  let rng = rng0 () in
  let in_shape = { Layer.c = 2; h = 6; w = 5 } in
  let l =
    Layer.conv2d_random ~rng ~in_shape ~out_chans:3 ~kh:3 ~kw:3 ~stride:2
      ~pad:1 ()
  in
  check_rows_match "conv" l (random_input rng (Layer.shape_size in_shape))

let test_rows_conv_nopad () =
  let rng = rng0 () in
  let in_shape = { Layer.c = 1; h = 5; w = 5 } in
  let l =
    Layer.conv2d_random ~rng ~in_shape ~out_chans:2 ~kh:2 ~kw:2 ~stride:1
      ~pad:0 ()
  in
  check_rows_match "conv nopad" l (random_input rng 25)

let test_rows_pool () =
  let rng = rng0 () in
  let in_shape = { Layer.c = 2; h = 4; w = 4 } in
  let l = Layer.avg_pool ~in_shape ~kh:2 ~kw:2 ~stride:2 in
  check_rows_match "pool" l (random_input rng 32)

let test_rows_normalize () =
  let rng = rng0 () in
  let l =
    Layer.normalize ~mul:[| 2.0; -1.0; 0.5 |] ~add:[| 0.1; 0.2; -0.3 |]
  in
  check_rows_match "normalize" l (random_input rng 3)

(* --- conv shapes --- *)

let test_conv_shape () =
  let s =
    Layer.conv_out_shape
      ~in_shape:{ Layer.c = 3; h = 24; w = 48 }
      ~out_chans:8 ~kh:3 ~kw:3 ~stride:2 ~pad:1
  in
  Alcotest.(check int) "c" 8 s.Layer.c;
  Alcotest.(check int) "h" 12 s.Layer.h;
  Alcotest.(check int) "w" 24 s.Layer.w

let test_avg_pool_value () =
  let l =
    Layer.avg_pool ~in_shape:{ Layer.c = 1; h = 2; w = 2 } ~kh:2 ~kw:2
      ~stride:2
  in
  let y = Layer.forward l [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check bool) "avg" true (feq y.(0) 2.5)

(* --- vjp vs finite differences --- *)

let finite_diff_vjp layer x dy =
  (* d/dx_k of dy . linear(x) *)
  let h = 1e-6 in
  Array.init (Layer.in_dim layer) (fun k ->
      let xp = Array.copy x and xm = Array.copy x in
      xp.(k) <- xp.(k) +. h;
      xm.(k) <- xm.(k) -. h;
      let f z =
        let y = Layer.forward_pre layer z in
        let acc = ref 0.0 in
        Array.iteri (fun i v -> acc := !acc +. (dy.(i) *. v)) y;
        !acc
      in
      (f xp -. f xm) /. (2.0 *. h))

let check_vjp name layer =
  let rng = rng0 () in
  let x = random_input rng (Layer.in_dim layer) in
  let dy = random_input rng (Layer.out_dim layer) in
  let got = Layer.vjp_linear layer dy in
  let want = finite_diff_vjp layer x dy in
  Array.iteri
    (fun k w ->
      if not (feq ~eps:1e-4 got.(k) w) then
        Alcotest.failf "%s: vjp[%d] = %.6g, fd = %.6g" name k got.(k) w)
    want

let test_vjp_dense () =
  check_vjp "dense" (Layer.dense_random ~rng:(rng0 ()) ~in_dim:5 ~out_dim:3 ())

let test_vjp_conv () =
  check_vjp "conv"
    (Layer.conv2d_random ~rng:(rng0 ())
       ~in_shape:{ Layer.c = 2; h = 5; w = 4 } ~out_chans:3 ~kh:3 ~kw:3
       ~stride:2 ~pad:1 ())

let test_vjp_pool () =
  check_vjp "pool"
    (Layer.avg_pool ~in_shape:{ Layer.c = 1; h = 4; w = 4 } ~kh:2 ~kw:2
       ~stride:2)

(* --- whole-network input gradient vs finite differences --- *)

let small_net () =
  let rng = rng0 () in
  Network.make
    [ Layer.dense_random ~relu:true ~rng ~in_dim:3 ~out_dim:6 ();
      Layer.dense_random ~relu:true ~rng ~in_dim:6 ~out_dim:4 ();
      Layer.dense_random ~rng ~in_dim:4 ~out_dim:2 () ]

let test_network_gradient () =
  let net = small_net () in
  let rng = rng0 () in
  let x = random_input rng 3 in
  let g = Nn.Grad.output_gradient net ~x ~j:0 in
  let h = 1e-6 in
  for k = 0 to 2 do
    let xp = Array.copy x and xm = Array.copy x in
    xp.(k) <- xp.(k) +. h;
    xm.(k) <- xm.(k) -. h;
    let fd =
      ((Network.forward net xp).(0) -. (Network.forward net xm).(0))
      /. (2.0 *. h)
    in
    if not (feq ~eps:1e-4 g.(k) fd) then
      Alcotest.failf "input grad[%d]: %.6g vs fd %.6g" k g.(k) fd
  done

let test_param_gradient () =
  (* numerical check of dL/dW for the first dense layer *)
  let net = small_net () in
  let rng = rng0 () in
  let x = random_input rng 3 in
  let target = random_input rng 2 in
  let loss () =
    let pred = Network.forward net x in
    let v, _ = Nn.Train.loss_value_grad Nn.Train.Mse ~pred ~target in
    v
  in
  let grads =
    Array.init (Network.n_layers net) (fun i ->
        Layer.alloc_grad_arrays (Network.layer net i))
  in
  let tape = Nn.Grad.record net x in
  let pred = tape.Nn.Grad.posts.(Network.n_layers net - 1) in
  let _, dout = Nn.Train.loss_value_grad Nn.Train.Mse ~pred ~target in
  ignore (Nn.Grad.backprop_params net tape ~dout grads);
  let params = Layer.param_arrays (Network.layer net 0) in
  let dw = List.hd grads.(0) in
  let w = List.hd params in
  let h = 1e-6 in
  for k = 0 to min 5 (Array.length w - 1) do
    let orig = w.(k) in
    w.(k) <- orig +. h;
    let lp = loss () in
    w.(k) <- orig -. h;
    let lm = loss () in
    w.(k) <- orig;
    let fd = (lp -. lm) /. (2.0 *. h) in
    if not (feq ~eps:1e-3 dw.(k) fd) then
      Alcotest.failf "param grad[%d]: %.6g vs fd %.6g" k dw.(k) fd
  done

(* --- property: backprop vs finite differences on random nets --- *)

(* random dense ReLU chain: seed + layer widths *)
let chain_gen =
  QCheck.Gen.(
    tup3 (int_range 0 10_000) (int_range 1 4)
      (list_size (int_range 1 2) (int_range 1 5)))

let build_chain (seed, in_dim, hidden) =
  let rng = Random.State.make [| seed; in_dim; List.length hidden |] in
  let dims = (in_dim :: hidden) @ [ 1 + (seed mod 2) ] in
  let rec layers = function
    | a :: (b :: rest as tl) ->
        Layer.dense_random ~relu:(rest <> []) ~rng ~in_dim:a ~out_dim:b ()
        :: layers tl
    | _ -> []
  in
  (Network.make (layers dims), rng)

(* Central differences on a scalar function of one parameter array
   entry.  [pattern] returns every branch decision behind one
   evaluation.  Where it agrees at theta - h, theta and theta + h, no
   kink lies in between (each decided quantity is affine in the
   parameter once the earlier decisions are fixed, so it cannot change
   sign and change back).  Between kinks both functions checked here
   are at most quadratic in the parameter (the surrogate affine, the
   MSE of a piecewise-linear output quadratic), where the centred
   difference is exact up to rounding and must match the gradient.
   Where the pattern differs the coordinate sits within h of a kink,
   where the subgradient and the difference legitimately disagree, and
   is skipped. *)
let fd_check ~name ~f ~pattern ~analytic params =
  let h = 1e-6 in
  List.iter2
    (fun p g ->
      Array.iteri
        (fun k orig ->
          let at v =
            p.(k) <- v;
            let r = (f (), pattern ()) in
            p.(k) <- orig;
            r
          in
          let fp, pat_p = at (orig +. h) and fm, pat_m = at (orig -. h) in
          let pat = pattern () in
          if pat_p = pat && pat_m = pat then begin
            let fd = (fp -. fm) /. (2.0 *. h) in
            if Float.abs (g.(k) -. fd) > 1e-4 *. Float.max 1.0 (Float.abs fd)
            then
              QCheck.Test.fail_reportf "%s[%d]: analytic %.9g, fd %.9g" name
                k g.(k) fd
          end)
        p)
    params analytic

(* Three-way sign, the outcome of any comparison with zero. *)
let sign v = compare v 0.0

(* The ReLU activation pattern of a forward pass. *)
let relu_pattern net x () =
  let pres, _ = Network.forward_all net x in
  List.concat
    (List.init (Network.n_layers net) (fun i ->
         if (Network.layer net i).Layer.relu then
           Array.to_list (Array.map sign pres.(i))
         else []))

(* Every branch [Interval_prop.certify] takes: the sign of each
   coefficient ([Interval.scale]), each ReLU's value and distance
   endpoint signs and [Interval.relu_dist]'s max/min and meet
   comparisons, and [Interval.abs_max] on the outputs. *)
let surrogate_pattern net ~input ~delta () =
  let b =
    Cert.Bounds.create net ~input
      ~input_dist:(Cert.Bounds.uniform_delta net delta)
  in
  Cert.Interval_prop.propagate net b;
  let acc = ref [] in
  let note vs = acc := List.rev_append (List.map sign vs) !acc in
  for i = 0 to Network.n_layers net - 1 do
    let layer = Network.layer net i in
    for j = 0 to Layer.out_dim layer - 1 do
      note
        (List.map snd (Layer.linear_row layer j).Linalg.Sparse_row.coeffs);
      if layer.Layer.relu then begin
        let y = b.Cert.Bounds.y.(i).(j) and dy = b.Cert.Bounds.dy.(i).(j) in
        let open Cert.Interval in
        let u_lo = Float.min 0.0 dy.lo and u_hi = Float.max 0.0 dy.hi in
        let c_lo, c_hi =
          if y.hi <= 0.0 then
            (Float.max 0.0 (y.lo +. dy.lo), Float.max 0.0 (y.hi +. dy.hi))
          else (Float.max dy.lo (-.y.hi), Float.max dy.hi (-.y.lo))
        in
        note
          [ y.lo; y.hi; dy.lo; dy.hi; y.lo +. dy.lo; y.hi +. dy.hi;
            dy.lo +. y.hi; dy.hi +. y.lo; u_lo -. c_lo; u_hi -. c_hi;
            Float.max u_lo c_lo -. Float.min u_hi c_hi ]
      end
    done
  done;
  Array.iter
    (fun (iv : Cert.Interval.t) ->
      note [ iv.lo; iv.hi; Float.abs iv.lo -. Float.abs iv.hi ])
    (Cert.Bounds.output_dist b net);
  !acc

let grad_fd_prop =
  Test_seed.to_alcotest
    (QCheck.Test.make ~count:40 ~name:"Grad.backprop_params = fd (random nets)"
       (QCheck.make chain_gen) (fun spec ->
         let net, rng = build_chain spec in
         let x = random_input rng (Network.input_dim net) in
         let target = random_input rng (Network.output_dim net) in
         let loss () =
           let pred = Network.forward net x in
           fst (Nn.Train.loss_value_grad Nn.Train.Mse ~pred ~target)
         in
         let grads = Nn.Train.alloc_grads net in
         let tape = Nn.Grad.record net x in
         let pred = tape.Nn.Grad.posts.(Network.n_layers net - 1) in
         let _, dout = Nn.Train.loss_value_grad Nn.Train.Mse ~pred ~target in
         ignore (Nn.Grad.backprop_params net tape ~dout grads);
         for i = 0 to Network.n_layers net - 1 do
           fd_check
             ~name:(Printf.sprintf "layer %d" i)
             ~f:loss ~pattern:(relu_pattern net x) ~analytic:grads.(i)
             (Layer.param_arrays (Network.layer net i))
         done;
         true))

(* the robustness surrogate: penalty_grad vs finite differences *)
let robust_fd_net net rng =
  let delta = 0.01 +. Random.State.float rng 0.2 in
  let lo = -.Random.State.float rng 0.5 in
  let hi = lo +. 0.2 +. Random.State.float rng 1.0 in
  let input = Cert.Bounds.box_domain net ~lo ~hi in
  let penalty () =
    Array.fold_left ( +. ) 0.0 (Cert.Interval_prop.certify net ~input ~delta)
  in
  let grads = Nn.Train.alloc_grads net in
  let v = Cert.Interval_prop.penalty_grad net ~input ~delta grads in
  if Float.abs (v -. penalty ()) > 1e-12 *. (1.0 +. Float.abs v) then
    QCheck.Test.fail_reportf "penalty_grad value %.9g <> penalty %.9g" v
      (penalty ());
  for i = 0 to Network.n_layers net - 1 do
    fd_check
      ~name:(Printf.sprintf "surrogate layer %d" i)
      ~f:penalty ~pattern:(surrogate_pattern net ~input ~delta)
      ~analytic:grads.(i)
      (Layer.param_arrays (Network.layer net i))
  done

let robust_fd_prop =
  Test_seed.to_alcotest
    (QCheck.Test.make ~count:40
       ~name:"Interval_prop.penalty_grad = fd (random nets)"
       (QCheck.make chain_gen) (fun spec ->
         let net, rng = build_chain spec in
         robust_fd_net net rng;
         true))

let test_robust_fd_conv () =
  (* the conv/pool/normalize scatter paths, deterministically *)
  let rng = rng0 () in
  let s0 = { Layer.c = 1; h = 4; w = 4 } in
  let c1 =
    Layer.conv2d_random ~relu:true ~rng ~in_shape:s0 ~out_chans:2 ~kh:3 ~kw:3
      ~stride:2 ~pad:1 ()
  in
  let s1 = Option.get (Layer.out_shape c1) in
  let pool = Layer.avg_pool ~in_shape:s1 ~kh:2 ~kw:2 ~stride:1 in
  let s2 = Option.get (Layer.out_shape pool) in
  let flat = Layer.shape_size s2 in
  let norm =
    Layer.normalize
      ~mul:(Array.init flat (fun i -> 0.5 +. (0.1 *. float_of_int i)))
      ~add:(Array.make flat 0.05)
  in
  let net =
    Network.make
      [ c1; pool; norm; Layer.dense_random ~rng ~in_dim:flat ~out_dim:2 () ]
  in
  robust_fd_net net rng

(* --- network structure --- *)

let test_network_mismatch () =
  let rng = rng0 () in
  let l1 = Layer.dense_random ~rng ~in_dim:3 ~out_dim:4 () in
  let l2 = Layer.dense_random ~rng ~in_dim:5 ~out_dim:2 () in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Network.make: layer dim mismatch (4 -> 5)") (fun () ->
      ignore (Network.make [ l1; l2 ]))

let test_hidden_count () =
  let net = small_net () in
  Alcotest.(check int) "hidden" 10 (Network.hidden_neuron_count net)

let test_prefix () =
  let net = small_net () in
  let p = Network.prefix net 2 in
  Alcotest.(check int) "layers" 2 (Network.n_layers p);
  Alcotest.(check int) "out" 4 (Network.output_dim p)

let test_forward_all_consistent () =
  let net = small_net () in
  let rng = rng0 () in
  let x = random_input rng 3 in
  let _, posts = Network.forward_all net x in
  let direct = Network.forward net x in
  Alcotest.(check bool) "forward_all = forward" true
    (Linalg.Vec.equal ~eps:1e-12 posts.(Network.n_layers net - 1) direct)

(* --- training --- *)

let test_training_reduces_loss () =
  let rng = Random.State.make [| 3 |] in
  (* learn y = relu(x0 - x1) approximately *)
  let xs =
    Array.init 200 (fun _ ->
        [| Random.State.float rng 1.0; Random.State.float rng 1.0 |])
  in
  let ys = Array.map (fun x -> [| Float.max 0.0 (x.(0) -. x.(1)) |]) xs in
  let net =
    Network.make
      [ Layer.dense_random ~relu:true ~rng ~in_dim:2 ~out_dim:8 ();
        Layer.dense_random ~rng ~in_dim:8 ~out_dim:1 () ]
  in
  let before = Nn.Train.mean_loss Nn.Train.Mse net ~xs ~ys in
  let config =
    { Nn.Train.loss = Nn.Train.Mse; optimizer = Nn.Train.adam ();
      epochs = 50; batch_size = 16; seed = 4 }
  in
  Nn.Train.fit config net ~xs ~ys;
  let after = Nn.Train.mean_loss Nn.Train.Mse net ~xs ~ys in
  if not (after < before /. 4.0) then
    Alcotest.failf "training did not converge: %.5f -> %.5f" before after

let test_sgd_momentum () =
  let rng = Random.State.make [| 5 |] in
  let xs = Array.init 100 (fun _ -> [| Random.State.float rng 1.0 |]) in
  let ys = Array.map (fun x -> [| (2.0 *. x.(0)) -. 0.5 |]) xs in
  let net =
    Network.make [ Layer.dense_random ~rng ~in_dim:1 ~out_dim:1 () ]
  in
  let config =
    { Nn.Train.loss = Nn.Train.Mse;
      optimizer = Nn.Train.Sgd { lr = 0.1; momentum = 0.9 };
      epochs = 60; batch_size = 10; seed = 6 }
  in
  Nn.Train.fit config net ~xs ~ys;
  let after = Nn.Train.mean_loss Nn.Train.Mse net ~xs ~ys in
  Alcotest.(check bool) "linear fit" true (after < 1e-3)

let test_fit_rejects_batch_size () =
  let net = small_net () in
  let xs = [| [| 0.1; 0.2; 0.3 |] |] and ys = [| [| 0.0; 1.0 |] |] in
  List.iter
    (fun batch_size ->
      let config =
        { Nn.Train.loss = Nn.Train.Mse; optimizer = Nn.Train.adam ();
          epochs = 1; batch_size; seed = 1 }
      in
      Alcotest.check_raises
        (Printf.sprintf "batch_size %d" batch_size)
        (Invalid_argument "Train.fit: batch_size")
        (fun () -> Nn.Train.fit config net ~xs ~ys))
    [ 0; -3 ]

let test_softmax_ce_grad () =
  let pred = [| 1.0; 2.0; 0.5 |] in
  let target = [| 0.0; 1.0; 0.0 |] in
  let v, g = Nn.Train.loss_value_grad Nn.Train.Softmax_ce ~pred ~target in
  Alcotest.(check bool) "positive loss" true (v > 0.0);
  (* gradient sums to zero: softmax probs - one-hot *)
  let s = Array.fold_left ( +. ) 0.0 g in
  Alcotest.(check bool) "grad sums 0" true (feq ~eps:1e-9 s 0.0);
  Alcotest.(check bool) "target grad negative" true (g.(1) < 0.0)

(* --- io --- *)

let test_io_roundtrip_dense () =
  let net = small_net () in
  let s = Nn.Io.to_string net in
  let net2 = Nn.Io.of_string s in
  let rng = rng0 () in
  let x = random_input rng 3 in
  Alcotest.(check bool) "roundtrip outputs" true
    (Linalg.Vec.equal ~eps:0.0 (Network.forward net x)
       (Network.forward net2 x))

let test_io_roundtrip_conv () =
  let rng = rng0 () in
  let s0 = { Layer.c = 2; h = 6; w = 6 } in
  let c1 =
    Layer.conv2d_random ~relu:true ~rng ~in_shape:s0 ~out_chans:3 ~kh:3 ~kw:3
      ~stride:2 ~pad:1 ()
  in
  let s1 = Option.get (Layer.out_shape c1) in
  let pool = Layer.avg_pool ~in_shape:s1 ~kh:1 ~kw:1 ~stride:1 in
  let flat = Layer.shape_size s1 in
  let net =
    Network.make
      [ c1; pool;
        Layer.normalize ~mul:(Array.make flat 0.5)
          ~add:(Array.make flat 0.1);
        Layer.dense_random ~rng ~in_dim:flat ~out_dim:2 () ]
  in
  let net2 = Nn.Io.of_string (Nn.Io.to_string net) in
  let x = random_input rng (Layer.shape_size s0) in
  Alcotest.(check bool) "conv roundtrip" true
    (Linalg.Vec.equal ~eps:0.0 (Network.forward net x)
       (Network.forward net2 x))

let test_io_bad_header () =
  Alcotest.check_raises "bad header" (Failure "Nn.Io: bad header") (fun () ->
      ignore (Nn.Io.of_string "bogus\n"))

let test_io_truncated () =
  (try
     ignore (Nn.Io.of_string "grc-net 1\nlayers 1\ndense 2 2 relu\n");
     Alcotest.fail "expected failure on truncated file"
   with Failure _ -> ())

let test_io_wrong_float_count () =
  (try
     ignore
       (Nn.Io.of_string
          "grc-net 1\nlayers 1\ndense 2 1 linear\n1.0 2.0\n0.5 0.5\n");
     Alcotest.fail "expected failure on float count"
   with Failure _ -> ())

let test_io_file_roundtrip () =
  let net = small_net () in
  let path = Filename.temp_file "grc-test" ".net" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Nn.Io.save net path;
      let net2 = Nn.Io.load path in
      let x = [| 0.1; -0.5; 0.9 |] in
      Alcotest.(check bool) "file roundtrip" true
        (Linalg.Vec.equal ~eps:0.0 (Network.forward net x)
           (Network.forward net2 x)))

let test_param_count () =
  let net = small_net () in
  (* dense 3->6 + 6->4 + 4->2: (3*6 + 6) + (6*4 + 4) + (4*2 + 2) *)
  Alcotest.(check int) "param count" 62 (Network.param_count net)

let test_digest_stable () =
  let net = small_net () in
  let d = Network.digest net in
  Alcotest.(check string) "digest is canonical-form md5"
    (Digest.to_hex (Digest.string (Nn.Io.to_string net)))
    d;
  (* round-tripping through the text form preserves the digest *)
  Alcotest.(check string) "roundtrip digest" d
    (Network.digest (Nn.Io.of_string (Nn.Io.to_string net)))

let test_digest_sensitive () =
  let rng = rng0 () in
  let l1 = Layer.dense_random ~relu:true ~rng ~in_dim:3 ~out_dim:4 () in
  let l2 = Layer.dense_random ~rng ~in_dim:4 ~out_dim:2 () in
  let net = Network.make [ l1; l2 ] in
  let d = Network.digest net in
  (* perturb one weight by a single ulp: the digest must move *)
  (match Layer.param_arrays l1 with
   | a :: _ when Array.length a > 0 -> a.(0) <- Float.succ a.(0)
   | _ -> Alcotest.fail "expected dense parameters");
  Alcotest.(check bool) "digest changed" false (Network.digest net = d)

let test_io_post_sgd_bitwise () =
  (* trained weights carry full 53-bit mantissas; the text form must
     reproduce them bit for bit, not just to printf-pretty precision *)
  let rng = Random.State.make [| 17 |] in
  let xs = Array.init 64 (fun _ -> random_input rng 3) in
  let ys = Array.map (fun x -> [| x.(0) -. (0.5 *. x.(1)) |]) xs in
  let net =
    Network.make
      [ Layer.dense_random ~relu:true ~rng ~in_dim:3 ~out_dim:5 ();
        Layer.dense_random ~rng ~in_dim:5 ~out_dim:1 () ]
  in
  let config =
    { Nn.Train.loss = Nn.Train.Mse; optimizer = Nn.Train.adam ();
      epochs = 3; batch_size = 8; seed = 12 }
  in
  Nn.Train.fit config net ~xs ~ys;
  let net2 = Nn.Io.of_string (Nn.Io.to_string net) in
  Alcotest.(check string) "digest survives" (Network.digest net)
    (Network.digest net2);
  for i = 0 to Network.n_layers net - 1 do
    List.iter2
      (fun p q ->
        Array.iteri
          (fun k v ->
            if Int64.bits_of_float v <> Int64.bits_of_float q.(k) then
              Alcotest.failf "layer %d param %d: %.17g reread as %.17g" i k v
                q.(k))
          p)
      (Layer.param_arrays (Network.layer net i))
      (Layer.param_arrays (Network.layer net2 i))
  done

(* property: [of_string] on corrupted input parses or raises [Failure]
   with a message — never [Invalid_argument] or an out-of-bounds crash
   from trusting unvalidated dimensions *)
let io_malformed_prop =
  let base = Nn.Io.to_string (small_net ()) in
  let len = String.length base in
  let gen = QCheck.Gen.(tup3 (int_range 0 6) (int_range 0 (len - 1)) char) in
  Test_seed.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"of_string malformed -> Failure"
       (QCheck.make gen) (fun (mode, pos, c) ->
         let mutated =
           match mode with
           | 0 -> String.sub base 0 pos                  (* truncate *)
           | 1 ->
               (* overwrite one byte with an arbitrary one *)
               String.mapi (fun i x -> if i = pos then c else x) base
           | 2 ->
               (* splice in a token that overflows int_of_string *)
               String.sub base 0 pos ^ "99999999999999999999"
               ^ String.sub base pos (len - pos)
           | 3 ->
               (* huge dimension: must be rejected, not allocated *)
               "grc-net 1\nlayers 1\ndense 999999999 999999999 linear\n"
           | 4 ->
               (* negative dimension *)
               "grc-net 1\nlayers 1\ndense -4 2 relu\n1 2\n3 4\n"
           | 5 ->
               (* dims valid but payload from the wrong layer kind *)
               "grc-net 1\nlayers 1\nconv 1 2 2 1 1 1 1 0 relu\nnope\n"
           | _ ->
               (* drop one line *)
               base |> String.split_on_char '\n'
               |> List.filteri (fun i _ -> i <> pos mod 5)
               |> String.concat "\n"
         in
         match Nn.Io.of_string mutated with
         | _ -> true
         | exception Failure _ -> true
         | exception e ->
             QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)))

let test_describe () =
  let net = small_net () in
  let s = Network.describe net in
  Alcotest.(check bool) "mentions fc" true
    (String.length s > 0 && String.sub s 0 2 = "fc")

(* property: linear_row matches forward on random conv configurations *)
let conv_row_prop =
  let gen =
    QCheck.Gen.(
      let small = int_range 1 3 in
      tup6 small (int_range 3 7) (int_range 3 7) small (int_range 1 2)
        (int_range 0 1))
  in
  Test_seed.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"conv linear_row = forward_pre"
       (QCheck.make gen)
       (fun (c, h, w, oc, stride, pad) ->
         let kh = min 3 h and kw = min 3 w in
         let out_h = ((h + (2 * pad) - kh) / stride) + 1 in
         let out_w = ((w + (2 * pad) - kw) / stride) + 1 in
         if out_h <= 0 || out_w <= 0 then true
         else begin
           let rng = Random.State.make [| c; h; w; oc; stride; pad |] in
           let in_shape = { Layer.c; h; w } in
           let l =
             Layer.conv2d_random ~rng ~in_shape ~out_chans:oc ~kh ~kw ~stride
               ~pad ()
           in
           let x = random_input rng (Layer.shape_size in_shape) in
           let y = Layer.forward_pre l x in
           let ok = ref true in
           for j = 0 to Layer.out_dim l - 1 do
             let v = Linalg.Sparse_row.eval_vec (Layer.linear_row l j) x in
             if not (feq ~eps:1e-9 v y.(j)) then ok := false
           done;
           !ok
         end))

let suites =
  [ ( "nn:layer",
      [ Alcotest.test_case "dense forward" `Quick test_dense_forward;
        Alcotest.test_case "dense dims" `Quick test_dense_dims;
        Alcotest.test_case "rows dense" `Quick test_rows_dense;
        Alcotest.test_case "rows conv" `Quick test_rows_conv;
        Alcotest.test_case "rows conv nopad" `Quick test_rows_conv_nopad;
        Alcotest.test_case "rows pool" `Quick test_rows_pool;
        Alcotest.test_case "rows normalize" `Quick test_rows_normalize;
        Alcotest.test_case "conv shape" `Quick test_conv_shape;
        Alcotest.test_case "avg pool value" `Quick test_avg_pool_value;
        conv_row_prop ] );
    ( "nn:gradients",
      [ Alcotest.test_case "vjp dense" `Quick test_vjp_dense;
        Alcotest.test_case "vjp conv" `Quick test_vjp_conv;
        Alcotest.test_case "vjp pool" `Quick test_vjp_pool;
        Alcotest.test_case "network input gradient" `Quick
          test_network_gradient;
        Alcotest.test_case "parameter gradient" `Quick test_param_gradient;
        grad_fd_prop; robust_fd_prop;
        Alcotest.test_case "robust fd conv/pool/normalize" `Quick
          test_robust_fd_conv ] );
    ( "nn:network",
      [ Alcotest.test_case "dim mismatch" `Quick test_network_mismatch;
        Alcotest.test_case "hidden count" `Quick test_hidden_count;
        Alcotest.test_case "prefix" `Quick test_prefix;
        Alcotest.test_case "forward_all" `Quick test_forward_all_consistent ]
    );
    ( "nn:train",
      [ Alcotest.test_case "adam converges" `Slow test_training_reduces_loss;
        Alcotest.test_case "sgd momentum" `Quick test_sgd_momentum;
        Alcotest.test_case "rejects batch_size <= 0" `Quick
          test_fit_rejects_batch_size;
        Alcotest.test_case "softmax ce gradient" `Quick test_softmax_ce_grad ]
    );
    ( "nn:io",
      [ Alcotest.test_case "dense roundtrip" `Quick test_io_roundtrip_dense;
        Alcotest.test_case "conv roundtrip" `Quick test_io_roundtrip_conv;
        Alcotest.test_case "bad header" `Quick test_io_bad_header;
        Alcotest.test_case "truncated" `Quick test_io_truncated;
        Alcotest.test_case "wrong float count" `Quick
          test_io_wrong_float_count;
        Alcotest.test_case "file roundtrip" `Quick test_io_file_roundtrip;
        Alcotest.test_case "describe" `Quick test_describe;
        Alcotest.test_case "param count" `Quick test_param_count;
        Alcotest.test_case "digest stable" `Quick test_digest_stable;
        Alcotest.test_case "digest sensitive" `Quick test_digest_sensitive;
        Alcotest.test_case "post-sgd bitwise roundtrip" `Quick
          test_io_post_sgd_bitwise;
        io_malformed_prop ] ) ]
