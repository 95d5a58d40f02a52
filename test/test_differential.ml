(* Differential soundness suite.

   Three independent implementations bound the same quantity — the
   worst global output variation under an L-inf input perturbation:

   - {!Attack.Global_under}: PGD from concrete points, a lower bound;
   - {!Cert.Certifier}: Algorithm 1 over the interleaved relaxation,
     an upper bound that becomes exact when every interior ReLU is
     refined and the window spans the whole network;
   - {!Cert.Exact} (twin MILP) and {!Cert.Reluplex_style} (lazy
     splitting): two exact references with nothing in common but the
     specification.

   Any ordering violation between them is a soundness bug in one of
   the stacks, with no oracle needed. *)

let dense_chain ~rng ~dims =
  let rec build = function
    | a :: b :: rest ->
        Nn.Layer.dense_random ~relu:(rest <> []) ~rng ~in_dim:a ~out_dim:b ()
        :: build (b :: rest)
    | [ _ ] | [] -> []
  in
  Nn.Network.make (build dims)

(* qcheck generator for a small random ReLU net: a seed (nets must be
   value-deterministic for shrinking) plus sampled layer widths. *)
let net_gen ~max_width ~hidden =
  QCheck.Gen.(
    triple (int_range 0 1_000_000) (int_range 2 max_width)
      (int_range 1 hidden))

let build_net (seed, width, hidden) =
  let rng = Random.State.make [| seed |] in
  let dims = (2 :: List.init hidden (fun _ -> width)) @ [ 2 ] in
  dense_chain ~rng ~dims

(* --- (a) attack lower bound <= certified upper bound --- *)

let attack_below_certified_prop =
  Test_seed.to_alcotest
    (QCheck.Test.make ~count:12 ~name:"attack eps_under <= certified eps"
       (QCheck.make (net_gen ~max_width:4 ~hidden:2))
       (fun ((seed, _, _) as spec) ->
         let net = build_net spec in
         let delta = 0.05 in
         let lo = -1.0 and hi = 1.0 in
         let input = Cert.Bounds.box_domain net ~lo ~hi in
         let report = Cert.Certifier.certify net ~input ~delta in
         let rng = Random.State.make [| seed + 1 |] in
         let dim = Nn.Network.input_dim net in
         let xs =
           Array.init 12 (fun _ ->
               Array.init dim (fun _ ->
                   lo +. Random.State.float rng (hi -. lo)))
         in
         let atk =
           Attack.Global_under.sweep ~domain:input ~seed net ~xs ~delta
         in
         Array.for_all2
           (fun under upper -> under <= upper +. 1e-9)
           atk.Attack.Global_under.eps_under report.Cert.Certifier.eps))

(* --- (b) relaxation dominates exact; full refinement closes the gap --- *)

let relaxed_vs_exact_prop =
  Test_seed.to_alcotest
    (QCheck.Test.make ~count:8
       ~name:"relaxed eps >= exact MILP eps; equality under full refinement"
       (QCheck.make (net_gen ~max_width:3 ~hidden:1))
       (fun spec ->
         let net = build_net spec in
         let delta = 0.08 in
         let input = Cert.Bounds.box_domain net ~lo:(-1.0) ~hi:1.0 in
         let exact = Cert.Exact.global_btne net ~input ~delta in
         if not exact.Cert.Exact.exact then true (* budget hit: no oracle *)
         else begin
           let relaxed = Cert.Certifier.certify net ~input ~delta in
           let dominated =
             Array.for_all2
               (fun r e -> r >= e -. 1e-6)
               relaxed.Cert.Certifier.eps exact.Cert.Exact.eps
           in
           (* window spanning the whole net + every interior ReLU
              refined turns the relaxation into the exact program *)
           let full_config =
             { Cert.Certifier.default_config with
               Cert.Certifier.window = Nn.Network.n_layers net;
               refine = Cert.Certifier.Fraction 1.0;
               margin = 0.0 }
           in
           let full =
             Cert.Certifier.certify ~config:full_config net ~input ~delta
           in
           let tight j f e =
             let tol = 1e-6 *. Float.max 1.0 (Float.abs e) in
             if Float.abs (f -. e) > tol then (
               Printf.eprintf
                 "full refinement not tight: output %d, full %.12g, \
                  exact %.12g\n%!"
                 j f e;
               false)
             else true
           in
           let closes =
             Array.for_all Fun.id
               (Array.mapi
                  (fun j f -> tight j f exact.Cert.Exact.eps.(j))
                  full.Cert.Certifier.eps)
           in
           dominated && closes
         end))

(* --- (c) two exact engines agree on 2-layer nets --- *)

(* Both engines optimise over the same finitely many ReLU phase
   patterns, so at the shared optimum they evaluate the same vertex —
   but through different pivot sequences, whose rounding differs in
   the last bits (observed: 1-2 ulp).  Bitwise equality is therefore
   too strong; a near-ulp relative tolerance still catches any real
   disagreement (a wrong phase pattern moves the optimum by far more
   than 1e-9 relative). *)

let reluplex_vs_milp_prop =
  Test_seed.to_alcotest
    (QCheck.Test.make ~count:8 ~name:"reluplex eps = exact MILP eps"
       (QCheck.make (net_gen ~max_width:3 ~hidden:1))
       (fun spec ->
         let net = build_net spec in
         let delta = 0.08 in
         let input = Cert.Bounds.box_domain net ~lo:(-1.0) ~hi:1.0 in
         let milp = Cert.Exact.global_btne net ~input ~delta in
         let rel = Cert.Reluplex_style.global net ~input ~delta in
         if not (milp.Cert.Exact.exact && rel.Cert.Reluplex_style.exact)
         then true
         else
           Array.for_all2
             (fun a b ->
               let tol = 1e-9 *. Float.max 1.0 (Float.abs b) in
               if Float.abs (a -. b) <= tol then true
               else (
                 Printf.eprintf
                   "exact engines disagree: reluplex %.17g, milp %.17g\n%!"
                   a b;
                 false))
             rel.Cert.Reluplex_style.eps milp.Cert.Exact.eps))

(* --- (d) certifier-in-the-loop training keeps the ordering each epoch --- *)

(* Every epoch of the robust training loop must sit inside the chain
   PGD lower bound <= symbolic <= interval surrogate: the penalty
   being trained against upper-bounds the tighter certificate, which
   upper-bounds anything an attack can realise — on every intermediate
   network, not just the final one. *)

let test_train_robust_chain () =
  let rng = Random.State.make [| 2024 |] in
  let xs =
    Array.init 80 (fun _ ->
        Array.init 2 (fun _ -> Random.State.float rng 1.0))
  in
  let ys = Array.map (fun x -> [| Float.max 0.0 (x.(0) -. x.(1)) |]) xs in
  let train = { Data.Dataset.xs; ys } in
  let test =
    { Data.Dataset.xs = Array.sub xs 0 20; ys = Array.sub ys 0 20 }
  in
  let net = dense_chain ~rng ~dims:[ 2; 6; 4; 1 ] in
  let config =
    { Exp.Train_robust.default_config with
      Exp.Train_robust.epochs = 3; batch_size = 16; lambda = 1e-2;
      delta = 0.05; lo = 0.0; hi = 1.0; seed = 5 }
  in
  let epochs_seen = ref 0 in
  let on_epoch (r : Exp.Train_robust.epoch_record) net =
    incr epochs_seen;
    let input =
      Cert.Bounds.box_domain net ~lo:config.Exp.Train_robust.lo
        ~hi:config.Exp.Train_robust.hi
    in
    let delta = config.Exp.Train_robust.delta in
    let surrogate = Cert.Interval_prop.certify net ~input ~delta in
    let sym = Cert.Symbolic.certify net ~input ~delta in
    let pgd =
      Attack.Global_under.sweep ~domain:input ~max_samples:10
        ~seed:(41 + r.Exp.Train_robust.epoch) net ~xs ~delta
    in
    Array.iteri
      (fun j s ->
        if not (s <= surrogate.(j)) then
          Alcotest.failf
            "epoch %d output %d: symbolic %.12g above surrogate %.12g"
            r.Exp.Train_robust.epoch j s surrogate.(j);
        if not (pgd.Attack.Global_under.eps_under.(j) <= s +. 1e-9) then
          Alcotest.failf
            "epoch %d output %d: PGD %.12g above symbolic %.12g"
            r.Exp.Train_robust.epoch j
            pgd.Attack.Global_under.eps_under.(j)
            s;
        (* the penalty the optimiser descends is the summed surrogate *)
        if
          not
            (r.Exp.Train_robust.surrogate
             >= Array.fold_left ( +. ) 0.0 surrogate -. 1e-12)
        then
          Alcotest.failf "epoch %d: recorded surrogate below re-evaluation"
            r.Exp.Train_robust.epoch)
      sym
  in
  let records = Exp.Train_robust.run ~on_epoch config net ~train ~test in
  Alcotest.(check int) "epoch records" 4 (List.length records);
  Alcotest.(check int) "hook fired per epoch" 4 !epochs_seen

(* --- (e) robust training's weight trajectory is pinned bitwise --- *)

(* SGD and MSE keep libm's pow/exp out of the weights, so the digest
   below depends only on IEEE arithmetic: any change to the interval
   surrogate, its reverse pass or the batch loop shows up here. *)

let test_train_robust_trajectory_pin () =
  let rng = Random.State.make [| 2718 |] in
  let xs =
    Array.init 45 (fun _ ->
        Array.init 3 (fun _ -> Random.State.float rng 1.0))
  in
  let ys =
    Array.map
      (fun x -> [| x.(0) -. (0.5 *. x.(1)); Float.max 0.0 (x.(2) -. x.(0)) |])
      xs
  in
  let train = { Data.Dataset.xs; ys } in
  let test = { Data.Dataset.xs = Array.sub xs 0 9; ys = Array.sub ys 0 9 } in
  let net = dense_chain ~rng ~dims:[ 3; 6; 5; 2 ] in
  let config =
    { Exp.Train_robust.default_config with
      Exp.Train_robust.loss = Nn.Train.Mse;
      optimizer = Nn.Train.Sgd { lr = 0.05; momentum = 0.9 };
      epochs = 4; batch_size = 7; lambda = 2e-2; delta = 0.05; lo = 0.0;
      hi = 1.0; seed = 13 }
  in
  let records = Exp.Train_robust.run config net ~train ~test in
  Alcotest.(check int) "epoch records" 5 (List.length records);
  Alcotest.(check string) "final weights digest"
    "87f20400312b97edcc6ba63981ebeb1a" (Nn.Network.digest net)

(* --- (f) trained weights re-certify bitwise after a file round trip --- *)

let test_post_train_recertify_bitwise () =
  let rng = Random.State.make [| 77 |] in
  let xs =
    Array.init 60 (fun _ ->
        Array.init 3 (fun _ -> Random.State.float rng 2.0 -. 1.0))
  in
  let ys = Array.map (fun x -> [| x.(0) +. (0.3 *. x.(2)) |]) xs in
  let net = dense_chain ~rng ~dims:[ 3; 5; 1 ] in
  let config =
    { Nn.Train.loss = Nn.Train.Mse; optimizer = Nn.Train.adam ();
      epochs = 4; batch_size = 16; seed = 9 }
  in
  Nn.Train.fit config net ~xs ~ys;
  let path = Filename.temp_file "grc-test" ".net" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Nn.Io.save net path;
      let net2 = Nn.Io.load path in
      Alcotest.(check string) "digest" (Nn.Network.digest net)
        (Nn.Network.digest net2);
      let delta = 0.03 in
      let certify n =
        let input = Cert.Bounds.box_domain n ~lo:(-1.0) ~hi:1.0 in
        ( Cert.Interval_prop.certify n ~input ~delta,
          Cert.Symbolic.certify n ~input ~delta )
      in
      let iv1, sb1 = certify net and iv2, sb2 = certify net2 in
      let bits name a b =
        Array.iteri
          (fun j x ->
            if Int64.bits_of_float x <> Int64.bits_of_float b.(j) then
              Alcotest.failf "%s eps %d: %.17g vs reloaded %.17g" name j x
                b.(j))
          a
      in
      bits "interval" iv1 iv2;
      bits "symbolic" sb1 sb2)

let suites =
  [ ( "differential",
      [ attack_below_certified_prop; relaxed_vs_exact_prop;
        reluplex_vs_milp_prop;
        Alcotest.test_case "train-robust epoch ordering chain" `Slow
          test_train_robust_chain;
        Alcotest.test_case "train-robust trajectory pin" `Quick
          test_train_robust_trajectory_pin;
        Alcotest.test_case "post-train recertify bitwise" `Quick
          test_post_train_recertify_bitwise ] ) ]
