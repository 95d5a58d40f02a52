type loss = Mse | Softmax_ce

let loss_value_grad loss ~pred ~target =
  let n = Array.length pred in
  if Array.length target <> n then
    invalid_arg "Train.loss_value_grad: target dimension";
  match loss with
  | Mse ->
      let grad = Array.make n 0.0 in
      let acc = ref 0.0 in
      for i = 0 to n - 1 do
        let d = pred.(i) -. target.(i) in
        acc := !acc +. (d *. d);
        grad.(i) <- 2.0 *. d /. float_of_int n
      done;
      (!acc /. float_of_int n, grad)
  | Softmax_ce ->
      let mx = Array.fold_left Float.max neg_infinity pred in
      let exps = Array.map (fun v -> exp (v -. mx)) pred in
      let z = Array.fold_left ( +. ) 0.0 exps in
      let probs = Array.map (fun e -> e /. z) exps in
      let value = ref 0.0 in
      let grad = Array.make n 0.0 in
      for i = 0 to n - 1 do
        if target.(i) > 0.0 then
          value := !value -. (target.(i) *. log (Float.max 1e-12 probs.(i)));
        grad.(i) <- probs.(i) -. target.(i)
      done;
      (!value, grad)

type optimizer =
  | Sgd of { lr : float; momentum : float }
  | Adam of { lr : float; beta1 : float; beta2 : float; eps : float }

let adam ?(lr = 1e-3) () = Adam { lr; beta1 = 0.9; beta2 = 0.999; eps = 1e-8 }

type config = {
  loss : loss;
  optimizer : optimizer;
  epochs : int;
  batch_size : int;
  seed : int;
}

type opt_state = {
  momentum_or_m : float array list array;
  v : float array list array;
  mutable step : int;
}

let make_state net =
  let alloc () =
    Array.init (Network.n_layers net) (fun i ->
        Layer.alloc_grad_arrays (Network.layer net i))
  in
  { momentum_or_m = alloc (); v = alloc (); step = 0 }

let apply_update optimizer state net grads scale =
  state.step <- state.step + 1;
  for i = 0 to Network.n_layers net - 1 do
    let params = Layer.param_arrays (Network.layer net i) in
    let rec go ps gs ms vs =
      match (ps, gs, ms, vs) with
      | [], [], [], [] -> ()
      | p :: ps, g :: gs, m :: ms, v :: vs ->
          (match optimizer with
           | Sgd { lr; momentum } ->
               for k = 0 to Array.length p - 1 do
                 let gk = g.(k) *. scale in
                 m.(k) <- (momentum *. m.(k)) +. gk;
                 p.(k) <- p.(k) -. (lr *. m.(k))
               done
           | Adam { lr; beta1; beta2; eps } ->
               let t = float_of_int state.step in
               let corr1 = 1.0 -. (beta1 ** t)
               and corr2 = 1.0 -. (beta2 ** t) in
               for k = 0 to Array.length p - 1 do
                 let gk = g.(k) *. scale in
                 m.(k) <- (beta1 *. m.(k)) +. ((1.0 -. beta1) *. gk);
                 v.(k) <- (beta2 *. v.(k)) +. ((1.0 -. beta2) *. gk *. gk);
                 let mhat = m.(k) /. corr1 and vhat = v.(k) /. corr2 in
                 p.(k) <- p.(k) -. (lr *. mhat /. (sqrt vhat +. eps))
               done);
          go ps gs ms vs
      | _ -> invalid_arg "Train: parameter structure mismatch"
    in
    go params grads.(i) state.momentum_or_m.(i) state.v.(i)
  done

let zero_grads grads =
  Array.iter (List.iter (fun g -> Array.fill g 0 (Array.length g) 0.0)) grads

let alloc_grads net =
  Array.init (Network.n_layers net) (fun i ->
      Layer.alloc_grad_arrays (Network.layer net i))

let fit ?log ?penalty config net ~xs ~ys =
  let n = Array.length xs in
  if Array.length ys <> n then invalid_arg "Train.fit: xs/ys length";
  if n = 0 then invalid_arg "Train.fit: empty dataset";
  if config.batch_size <= 0 then invalid_arg "Train.fit: batch_size";
  let rng = Random.State.make [| config.seed |] in
  let order = Array.init n Fun.id in
  let state = make_state net in
  let grads = alloc_grads net in
  for epoch = 1 to config.epochs do
    (* Fisher-Yates shuffle *)
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- t
    done;
    let epoch_loss = ref 0.0 in
    let pos = ref 0 in
    while !pos < n do
      let bsz = min config.batch_size (n - !pos) in
      zero_grads grads;
      for k = 0 to bsz - 1 do
        let idx = order.(!pos + k) in
        let tape = Grad.record net xs.(idx) in
        let pred = tape.Grad.posts.(Network.n_layers net - 1) in
        let value, dout =
          loss_value_grad config.loss ~pred ~target:ys.(idx)
        in
        epoch_loss := !epoch_loss +. value;
        ignore (Grad.backprop_params net tape ~dout grads)
      done;
      (match penalty with Some f -> f ~grads ~batch:bsz | None -> ());
      apply_update config.optimizer state net grads (1.0 /. float_of_int bsz);
      pos := !pos + bsz
    done;
    match log with
    | Some f -> f ~epoch ~loss:(!epoch_loss /. float_of_int n)
    | None -> ()
  done

let mean_loss loss net ~xs ~ys =
  let n = Array.length xs in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    let pred = Network.forward net xs.(i) in
    let v, _ = loss_value_grad loss ~pred ~target:ys.(i) in
    acc := !acc +. v
  done;
  !acc /. float_of_int (max 1 n)

let accuracy net ~xs ~labels =
  let n = Array.length xs in
  if Array.length labels <> n then invalid_arg "Train.accuracy: lengths";
  let correct = ref 0 in
  for i = 0 to n - 1 do
    let pred = Network.forward net xs.(i) in
    if Linalg.Vec.argmax pred = labels.(i) then incr correct
  done;
  float_of_int !correct /. float_of_int (max 1 n)
