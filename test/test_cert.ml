(* Tests for the certification core: intervals, interval propagation,
   encodings, decomposition, refinement, the certifiers and their
   soundness relationships.

   The master soundness property used throughout: for any pair of
   inputs x, x' with ||x' - x||_inf <= delta, any *sound* method's
   epsilon must dominate |F(x')_j - F(x)_j|; and over-approximations
   must dominate exact results, which must dominate attack-found
   variations. *)

module Interval = Cert.Interval

let feq ?(eps = 1e-6) a b = Float.abs (a -. b) <= eps

let rng0 () = Random.State.make [| 1234 |]

(* --- interval arithmetic --- *)

let test_interval_basics () =
  let iv = Interval.make (-1.0) 2.0 in
  Alcotest.(check bool) "width" true (feq (Interval.width iv) 3.0);
  Alcotest.(check bool) "mid" true (feq (Interval.mid iv) 0.5);
  Alcotest.(check bool) "contains" true (Interval.contains iv 0.0);
  Alcotest.(check bool) "not contains" false (Interval.contains iv 3.0);
  Alcotest.(check bool) "abs_max" true (feq (Interval.abs_max iv) 2.0)

let test_interval_invalid () =
  Alcotest.check_raises "inverted" (Invalid_argument "Interval.make: [1, 0]")
    (fun () -> ignore (Interval.make 1.0 0.0))

let test_interval_ops () =
  let a = Interval.make (-1.0) 2.0 and b = Interval.make 0.5 1.0 in
  Alcotest.(check bool) "add" true
    (Interval.equal (Interval.add a b) (Interval.make (-0.5) 3.0));
  Alcotest.(check bool) "sub" true
    (Interval.equal (Interval.sub a b) (Interval.make (-2.0) 1.5));
  Alcotest.(check bool) "scale neg" true
    (Interval.equal (Interval.scale (-2.0) a) (Interval.make (-4.0) 2.0));
  Alcotest.(check bool) "relu" true
    (Interval.equal (Interval.relu a) (Interval.make 0.0 2.0));
  Alcotest.(check bool) "join" true
    (Interval.equal (Interval.join a b) a);
  (match Interval.meet a b with
   | Some m -> Alcotest.(check bool) "meet" true (Interval.equal m b)
   | None -> Alcotest.fail "meet none");
  (match Interval.meet (Interval.make 0.0 1.0) (Interval.make 2.0 3.0) with
   | Some _ -> Alcotest.fail "disjoint meet"
   | None -> ())

(* relu_dist soundness: sampled relu(y+dy)-relu(y) always inside *)
let relu_dist_sound =
  let gen =
    QCheck.Gen.(
      tup4 (float_range (-3.0) 3.0) (float_range 0.0 3.0)
        (float_range (-2.0) 2.0) (float_range 0.0 2.0))
  in
  Test_seed.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"relu_dist encloses samples"
       (QCheck.make gen)
       (fun (ylo, ywidth, dlo, dwidth) ->
         let y_iv = Interval.make ylo (ylo +. ywidth) in
         let dy_iv = Interval.make dlo (dlo +. dwidth) in
         let enclosure = Interval.relu_dist ~y:y_iv ~dy:dy_iv in
         let ok = ref true in
         for i = 0 to 20 do
           for j = 0 to 20 do
             let y = ylo +. (ywidth *. float_of_int i /. 20.0) in
             let dy = dlo +. (dwidth *. float_of_int j /. 20.0) in
             let dx = Float.max 0.0 (y +. dy) -. Float.max 0.0 y in
             if not (Interval.contains (Interval.grow 1e-9 enclosure) dx)
             then ok := false
           done
         done;
         !ok))

(* --- test networks --- *)

let fig1_net () = Exp.Fig4.example_network ()

let random_net ~rng ~dims ~relu_last =
  let rec build = function
    | a :: b :: rest ->
        let relu = rest <> [] || relu_last in
        Nn.Layer.dense_random ~relu ~rng ~in_dim:a ~out_dim:b ()
        :: build (b :: rest)
    | [ _ ] | [] -> []
  in
  Nn.Network.make (build dims)

(* evaluate the true output variation on random input pairs *)
let sample_variation ~rng net ~lo ~hi ~delta ~j ~n =
  let dim = Nn.Network.input_dim net in
  let best = ref 0.0 in
  for _ = 1 to n do
    let x =
      Array.init dim (fun _ -> lo +. Random.State.float rng (hi -. lo))
    in
    let x' =
      Array.map
        (fun v ->
          let p = v +. (delta *. (Random.State.float rng 2.0 -. 1.0)) in
          Float.max lo (Float.min hi p))
        x
    in
    let d =
      Float.abs
        ((Nn.Network.forward net x').(j) -. (Nn.Network.forward net x).(j))
    in
    if d > !best then best := d
  done;
  !best

(* --- interval propagation --- *)

let test_interval_prop_sound () =
  let rng = rng0 () in
  let net = random_net ~rng ~dims:[ 3; 8; 5; 2 ] ~relu_last:false in
  let delta = 0.05 in
  let eps =
    Cert.Interval_prop.certify net
      ~input:(Cert.Bounds.box_domain net ~lo:(-1.0) ~hi:1.0)
      ~delta
  in
  for j = 0 to 1 do
    let sampled =
      sample_variation ~rng net ~lo:(-1.0) ~hi:1.0 ~delta ~j ~n:300
    in
    Alcotest.(check bool) "ibp sound" true (eps.(j) >= sampled -. 1e-9)
  done

let test_interval_prop_forward_containment () =
  (* every forward value must lie in the propagated intervals *)
  let rng = rng0 () in
  let net = random_net ~rng ~dims:[ 2; 6; 4; 1 ] ~relu_last:false in
  let bounds =
    Cert.Bounds.create net
      ~input:(Cert.Bounds.box_domain net ~lo:(-1.0) ~hi:1.0)
      ~input_dist:(Cert.Bounds.uniform_delta net 0.1)
  in
  Cert.Interval_prop.propagate net bounds;
  for _ = 1 to 50 do
    let x = Array.init 2 (fun _ -> Random.State.float rng 2.0 -. 1.0) in
    let pres, posts = Nn.Network.forward_all net x in
    for i = 0 to Nn.Network.n_layers net - 1 do
      Array.iteri
        (fun jdx v ->
          if not (Interval.contains
                    (Interval.grow 1e-9 bounds.Cert.Bounds.y.(i).(jdx)) v)
          then Alcotest.failf "y out of bounds at layer %d neuron %d" i jdx)
        pres.(i);
      Array.iteri
        (fun jdx v ->
          if not (Interval.contains
                    (Interval.grow 1e-9 bounds.Cert.Bounds.x.(i).(jdx)) v)
          then Alcotest.failf "x out of bounds at layer %d neuron %d" i jdx)
        posts.(i)
    done
  done

(* --- symbolic propagation --- *)

let test_symbolic_tighter_than_interval () =
  let rng = rng0 () in
  let net = random_net ~rng ~dims:[ 4; 10; 6; 2 ] ~relu_last:false in
  let input = Cert.Bounds.box_domain net ~lo:(-1.0) ~hi:1.0 in
  let delta = 0.05 in
  let ibp = Cert.Interval_prop.certify net ~input ~delta in
  let sym = Cert.Symbolic.certify net ~input ~delta in
  for j = 0 to 1 do
    Alcotest.(check bool) "symbolic <= interval" true
      (sym.(j) <= ibp.(j) +. 1e-9)
  done

let test_symbolic_sound () =
  let rng = rng0 () in
  let net = random_net ~rng ~dims:[ 3; 8; 5; 1 ] ~relu_last:false in
  let input = Cert.Bounds.box_domain net ~lo:(-1.0) ~hi:1.0 in
  let delta = 0.05 in
  let sym = (Cert.Symbolic.certify net ~input ~delta).(0) in
  let sampled =
    sample_variation ~rng net ~lo:(-1.0) ~hi:1.0 ~delta ~j:0 ~n:400
  in
  Alcotest.(check bool) "symbolic sound" true (sym >= sampled -. 1e-9)

let test_symbolic_forward_containment () =
  (* forward traces stay within the analysed bounds *)
  let rng = rng0 () in
  let net = random_net ~rng ~dims:[ 2; 6; 4; 1 ] ~relu_last:false in
  let bounds =
    Cert.Bounds.create net
      ~input:(Cert.Bounds.box_domain net ~lo:(-1.0) ~hi:1.0)
      ~input_dist:(Cert.Bounds.uniform_delta net 0.1)
  in
  Cert.Interval_prop.propagate net bounds;
  Cert.Symbolic.analyse net bounds;
  for _ = 1 to 100 do
    let x = Array.init 2 (fun _ -> Random.State.float rng 2.0 -. 1.0) in
    let pres, _ = Nn.Network.forward_all net x in
    for i = 0 to Nn.Network.n_layers net - 1 do
      Array.iteri
        (fun jdx v ->
          if not (Interval.contains
                    (Interval.grow 1e-7 bounds.Cert.Bounds.y.(i).(jdx)) v)
          then
            Alcotest.failf "symbolic y bound violated at (%d,%d)" i jdx)
        pres.(i)
    done
  done

let test_symbolic_affine_eval () =
  let a = { Cert.Symbolic.coeffs = [| 2.0; -1.0 |]; const = 0.5 } in
  let box = [| Interval.make 0.0 1.0; Interval.make (-1.0) 2.0 |] in
  let r = Cert.Symbolic.eval_range a box in
  Alcotest.(check bool) "affine range" true
    (Interval.equal r (Interval.make (-1.5) 3.5))

(* --- backward symbolic analysis --- *)

(* regression: a zero coefficient on an unbounded input must not poison
   the range (0. *. infinity = nan) *)
let test_eval_range_zero_coeff_unbounded () =
  let a = { Cert.Symbolic.coeffs = [| 0.0; 1.0 |]; const = 1.0 } in
  let box =
    [| Interval.make neg_infinity infinity; Interval.make 0.0 1.0 |]
  in
  let r = Cert.Symbolic.eval_range a box in
  Alcotest.(check bool) "finite exact range" true
    (Interval.equal r (Interval.make 1.0 2.0))

let test_back_unbounded_box_no_nan () =
  (* affine net over an unbounded input box: the distance analysis is
     still exact and finite (it only depends on the perturbation box) *)
  let w = Linalg.Mat.of_arrays [| [| 1.0; -2.0 |] |] in
  let net =
    Nn.Network.make [ Nn.Layer.dense ~weight:w ~bias:[| 0.5 |] () ]
  in
  let input =
    [| Interval.make neg_infinity infinity;
       Interval.make neg_infinity infinity |]
  in
  let eps = (Cert.Symbolic.certify net ~input ~delta:0.1).(0) in
  Alcotest.(check bool) "finite" true (Float.is_finite eps);
  Alcotest.(check bool) "exact |1|+|-2| scaled" true (feq eps 0.3)

(* property: symbolic bounds are contained in interval propagation,
   per neuron and quantity — both run independently from the same
   propagated base *)
let back_tightness_chain_prop =
  let gen = QCheck.Gen.(pair (int_range 0 100000) (int_range 2 6)) in
  Test_seed.to_alcotest
    (QCheck.Test.make ~count:15 ~name:"back subset interval-prop"
       (QCheck.make gen)
       (fun (seed, width) ->
         let rng = Random.State.make [| seed |] in
         let net =
           random_net ~rng ~dims:[ 2; width; width; 1 ] ~relu_last:false
         in
         let input = Cert.Bounds.box_domain net ~lo:(-1.0) ~hi:1.0 in
         let delta = 0.05 in
         let base =
           Cert.Bounds.create net ~input
             ~input_dist:(Cert.Bounds.uniform_delta net delta)
         in
         Cert.Interval_prop.propagate net base;
         let back = Cert.Bounds.copy base in
         Cert.Symbolic.analyse net back;
         let subset (a : Interval.t) (b : Interval.t) =
           a.Interval.lo >= b.Interval.lo -. 1e-9
           && a.Interval.hi <= b.Interval.hi +. 1e-9
         in
         let ok = ref true in
         let check (sel : Cert.Bounds.t -> Interval.t array array) =
           Array.iteri
             (fun i row ->
               Array.iteri
                 (fun j _ ->
                   if not (subset (sel back).(i).(j) (sel base).(i).(j)) then
                     ok := false)
                 row)
             (sel base)
         in
         check (fun b -> b.Cert.Bounds.y);
         check (fun b -> b.Cert.Bounds.dy);
         check (fun b -> b.Cert.Bounds.x);
         check (fun b -> b.Cert.Bounds.dx);
         !ok))

(* property: the zero-solve backward certificate is sound *)
let back_sound_prop =
  let gen = QCheck.Gen.(pair (int_range 0 100000) (int_range 2 5)) in
  Test_seed.to_alcotest
    (QCheck.Test.make ~count:15 ~name:"symbolic-back sound on random nets"
       (QCheck.make gen)
       (fun (seed, width) ->
         let rng = Random.State.make [| seed |] in
         let net =
           random_net ~rng ~dims:[ 2; width; width; 1 ] ~relu_last:false
         in
         let delta = 0.05 in
         let input = Cert.Bounds.box_domain net ~lo:(-1.0) ~hi:1.0 in
         let eps = (Cert.Symbolic.certify net ~input ~delta).(0) in
         let sampled =
           sample_variation ~rng net ~lo:(-1.0) ~hi:1.0 ~delta ~j:0 ~n:150
         in
         eps >= sampled -. 1e-9))

(* regression: the certified bits on the Table I nets at delta 0.001,
   over the input boxes [0, 1] and [0, 0.35] *)
let test_symbolic_pinned_bits () =
  List.iter
    (fun (name, net, cases) ->
      List.iter
        (fun (hi, expected) ->
          let input = Cert.Bounds.box_domain net ~lo:0.0 ~hi in
          let eps = (Cert.Symbolic.certify net ~input ~delta:0.001).(0) in
          let expected = Float.of_string expected in
          if Int64.bits_of_float eps <> Int64.bits_of_float expected then
            Alcotest.failf "%s over [0, %g]: eps %h, pinned %h" name hi eps
              expected)
        cases)
    [ ("dnn2", Test_nets.dnn2 (),
       [ (1.0, "0x1.5461ee72dc0cbp-7"); (0.35, "0x1.4fd782a24d0efp-7") ]);
      ("dnn3", Test_nets.dnn3 (),
       [ (1.0, "0x1.a9a8f67577456p-7"); (0.35, "0x1.a9a8f67577456p-7") ]);
      ("dnn4", Test_nets.dnn4 (),
       [ (1.0, "0x1.9f5fc94b57e54p-7"); (0.35, "0x1.8428bf8bf223ep-7") ]);
      ("dnn5", Test_nets.dnn5 (),
       [ (1.0, "0x1.5ee56e85e9e0bp-6"); (0.35, "0x1.53c14e209d396p-6") ]) ]

(* --- subnet cones --- *)

let test_cone_full_window () =
  let net = fig1_net () in
  let view = Cert.Subnet.cone net ~last:1 ~targets:[| 0 |] ~window:2 in
  Alcotest.(check int) "first" 0 view.Cert.Subnet.first;
  Alcotest.(check int) "depth" 2 (Cert.Subnet.depth view);
  Alcotest.(check int) "active last" 1
    (Array.length view.Cert.Subnet.active.(1));
  Alcotest.(check int) "active mid" 2
    (Array.length view.Cert.Subnet.active.(0));
  Alcotest.(check int) "inputs" 2 (Array.length view.Cert.Subnet.input_active)

let test_cone_window_clamp () =
  let net = fig1_net () in
  let view = Cert.Subnet.cone net ~last:0 ~targets:[| 1 |] ~window:5 in
  Alcotest.(check int) "depth clamped" 1 (Cert.Subnet.depth view)

let test_cone_conv_sparsity () =
  (* a conv neuron's cone must be a strict subset of the input *)
  let rng = rng0 () in
  let in_shape = { Nn.Layer.c = 1; h = 8; w = 8 } in
  let conv =
    Nn.Layer.conv2d_random ~relu:true ~rng ~in_shape ~out_chans:2 ~kh:3 ~kw:3
      ~stride:1 ~pad:0 ()
  in
  let out_size = Nn.Layer.out_dim conv in
  let net =
    Nn.Network.make
      [ conv; Nn.Layer.dense_random ~rng ~in_dim:out_size ~out_dim:1 () ]
  in
  let view = Cert.Subnet.cone net ~last:0 ~targets:[| 0 |] ~window:1 in
  Alcotest.(check int) "3x3 cone" 9
    (Array.length view.Cert.Subnet.input_active)

let test_cone_bad_target () =
  let net = fig1_net () in
  Alcotest.check_raises "bad target"
    (Invalid_argument "Subnet.cone: target out of range") (fun () ->
      ignore (Cert.Subnet.cone net ~last:1 ~targets:[| 7 |] ~window:1))

(* --- encodings: exact MILP must accept true execution traces --- *)

let test_exact_encoding_matches_forward () =
  (* for random input pairs, |F(x') - F(x)| <= exact eps, with equality
     approachable; and the exact solver's optimiser achieves its bound *)
  let rng = rng0 () in
  let net = random_net ~rng ~dims:[ 2; 4; 3; 1 ] ~relu_last:false in
  let delta = 0.1 in
  let input = Cert.Bounds.box_domain net ~lo:(-1.0) ~hi:1.0 in
  let r = Cert.Exact.global_btne net ~input ~delta in
  Alcotest.(check bool) "exact completed" true r.Cert.Exact.exact;
  let sampled =
    sample_variation ~rng net ~lo:(-1.0) ~hi:1.0 ~delta ~j:0 ~n:500
  in
  Alcotest.(check bool) "exact >= sampled" true
    (r.Cert.Exact.eps.(0) >= sampled -. 1e-7)

let test_exact_btne_equals_itne () =
  let rng = rng0 () in
  let net = random_net ~rng ~dims:[ 3; 5; 4; 2 ] ~relu_last:false in
  let delta = 0.05 in
  let input = Cert.Bounds.box_domain net ~lo:(-1.0) ~hi:1.0 in
  let b = Cert.Exact.global_btne net ~input ~delta in
  let i = Cert.Exact.global_itne net ~input ~delta in
  for j = 0 to 1 do
    if not (feq ~eps:1e-4 b.Cert.Exact.eps.(j) i.Cert.Exact.eps.(j)) then
      Alcotest.failf "btne %.6f <> itne %.6f at output %d"
        b.Cert.Exact.eps.(j) i.Cert.Exact.eps.(j) j
  done

let test_reluplex_equals_milp () =
  let rng = rng0 () in
  let net = random_net ~rng ~dims:[ 2; 5; 3; 1 ] ~relu_last:false in
  let delta = 0.08 in
  let input = Cert.Bounds.box_domain net ~lo:(-1.0) ~hi:1.0 in
  let m = Cert.Exact.global_btne net ~input ~delta in
  let r = Cert.Reluplex_style.global net ~input ~delta in
  Alcotest.(check bool) "reluplex exact" true r.Cert.Reluplex_style.exact;
  if not (feq ~eps:1e-4 m.Cert.Exact.eps.(0) r.Cert.Reluplex_style.eps.(0))
  then
    Alcotest.failf "milp %.6f <> reluplex %.6f" m.Cert.Exact.eps.(0)
      r.Cert.Reluplex_style.eps.(0)

(* --- the method ordering: sampled <= exact <= {variants, algo1} --- *)

let test_method_ordering () =
  let rng = rng0 () in
  let net = random_net ~rng ~dims:[ 3; 6; 4; 1 ] ~relu_last:false in
  let delta = 0.05 in
  let input = Cert.Bounds.box_domain net ~lo:(-1.0) ~hi:1.0 in
  let exact = (Cert.Exact.global_btne net ~input ~delta).Cert.Exact.eps.(0) in
  let sampled =
    sample_variation ~rng net ~lo:(-1.0) ~hi:1.0 ~delta ~j:0 ~n:400
  in
  let check name eps =
    if eps < exact -. 1e-6 then
      Alcotest.failf "%s (%.6f) below exact (%.6f): unsound!" name eps exact
  in
  Alcotest.(check bool) "sampled <= exact" true (sampled <= exact +. 1e-7);
  let ivmax r = Array.fold_left
      (fun acc iv -> Float.max acc (Interval.abs_max iv)) 0.0 r in
  check "btne_nd"
    (ivmax (Cert.Variants.btne_nd ~window:1 net ~input ~delta)
       .Cert.Variants.delta_out);
  check "btne_lpr"
    (ivmax (Cert.Variants.btne_lpr net ~input ~delta).Cert.Variants.delta_out);
  check "itne_nd"
    (ivmax (Cert.Variants.itne_nd ~window:1 net ~input ~delta)
       .Cert.Variants.delta_out);
  check "itne_lpr"
    (ivmax (Cert.Variants.itne_lpr net ~input ~delta).Cert.Variants.delta_out);
  check "algo1" (Cert.Certifier.certify net ~input ~delta).Cert.Certifier.eps.(0);
  check "interval"
    (Cert.Interval_prop.certify net ~input ~delta).(0)

(* ITNE must beat BTNE under decomposition (the paper's central claim) *)
let test_itne_tighter_than_btne () =
  let rng = rng0 () in
  let net = random_net ~rng ~dims:[ 3; 6; 4; 1 ] ~relu_last:false in
  let delta = 0.05 in
  let input = Cert.Bounds.box_domain net ~lo:(-1.0) ~hi:1.0 in
  let ivmax r = Array.fold_left
      (fun acc iv -> Float.max acc (Interval.abs_max iv)) 0.0 r in
  let bnd =
    ivmax (Cert.Variants.btne_nd ~window:1 net ~input ~delta)
      .Cert.Variants.delta_out
  in
  let ind =
    ivmax (Cert.Variants.itne_nd ~window:1 net ~input ~delta)
      .Cert.Variants.delta_out
  in
  Alcotest.(check bool) "itne-nd <= btne-nd" true (ind <= bnd +. 1e-9)

(* --- Algorithm 1 configuration behaviour --- *)

let test_refinement_tightens () =
  let rng = rng0 () in
  let net = random_net ~rng ~dims:[ 3; 8; 6; 1 ] ~relu_last:false in
  let delta = 0.05 in
  let input = Cert.Bounds.box_domain net ~lo:(-1.0) ~hi:1.0 in
  let eps_of refine =
    let config = { Cert.Certifier.default_config with
                   Cert.Certifier.refine } in
    (Cert.Certifier.certify ~config net ~input ~delta).Cert.Certifier.eps.(0)
  in
  let none = eps_of Cert.Certifier.No_refine in
  let all = eps_of (Cert.Certifier.Fraction 1.0) in
  Alcotest.(check bool) "refinement monotone" true (all <= none +. 1e-9)

let test_full_window_all_refined_is_exact () =
  let rng = rng0 () in
  let net = random_net ~rng ~dims:[ 2; 4; 3; 1 ] ~relu_last:false in
  let delta = 0.08 in
  let input = Cert.Bounds.box_domain net ~lo:(-1.0) ~hi:1.0 in
  let exact = (Cert.Exact.global_btne net ~input ~delta).Cert.Exact.eps.(0) in
  let config =
    { Cert.Certifier.default_config with
      Cert.Certifier.window = Nn.Network.n_layers net;
      refine = Cert.Certifier.Fraction 1.0;
      margin = 0.0 }
  in
  let ours =
    (Cert.Certifier.certify ~config net ~input ~delta).Cert.Certifier.eps.(0)
  in
  if not (feq ~eps:1e-4 exact ours) then
    Alcotest.failf "full window + full refinement %.6f should equal exact %.6f"
      ours exact

let test_exact_mode_equals_itne_nd () =
  let rng = rng0 () in
  let net = random_net ~rng ~dims:[ 2; 5; 3; 1 ] ~relu_last:false in
  let delta = 0.05 in
  let input = Cert.Bounds.box_domain net ~lo:(-1.0) ~hi:1.0 in
  let via_variant =
    Array.fold_left
      (fun acc iv -> Float.max acc (Interval.abs_max iv))
      0.0
      (Cert.Variants.itne_nd ~window:2 net ~input ~delta)
        .Cert.Variants.delta_out
  in
  let config =
    { Cert.Certifier.default_config with
      Cert.Certifier.window = 2;
      mode = Cert.Encode.Exact;
      margin = 0.0 }
  in
  let via_certifier =
    (Cert.Certifier.certify ~config net ~input ~delta).Cert.Certifier.eps.(0)
  in
  if not (feq ~eps:1e-6 via_variant via_certifier) then
    Alcotest.failf "variant %.6f vs certifier-exact %.6f" via_variant
      via_certifier

let test_delta_monotone () =
  (* a larger perturbation budget can only increase the certified bound *)
  let rng = rng0 () in
  let net = random_net ~rng ~dims:[ 3; 6; 4; 1 ] ~relu_last:false in
  let input = Cert.Bounds.box_domain net ~lo:(-1.0) ~hi:1.0 in
  let eps delta =
    (Cert.Certifier.certify net ~input ~delta).Cert.Certifier.eps.(0)
  in
  let prev = ref 0.0 in
  List.iter
    (fun d ->
      let e = eps d in
      Alcotest.(check bool)
        (Printf.sprintf "monotone at %.3f" d)
        true
        (e >= !prev -. 1e-9);
      prev := e)
    [ 0.01; 0.02; 0.05; 0.1 ]

let test_zero_delta () =
  (* no perturbation: the certified variation collapses to ~0 *)
  let rng = rng0 () in
  let net = random_net ~rng ~dims:[ 2; 5; 1 ] ~relu_last:false in
  let input = Cert.Bounds.box_domain net ~lo:(-1.0) ~hi:1.0 in
  let eps =
    (Cert.Certifier.certify net ~input ~delta:0.0).Cert.Certifier.eps.(0)
  in
  Alcotest.(check bool) "zero delta" true (eps <= 1e-5)

let test_parallel_identical () =
  (* the multicore fan-out (paper future work) must be bit-identical to
     the sequential certifier *)
  let rng = rng0 () in
  let net = random_net ~rng ~dims:[ 3; 7; 5; 2 ] ~relu_last:false in
  let delta = 0.05 in
  let input = Cert.Bounds.box_domain net ~lo:(-1.0) ~hi:1.0 in
  let run domains =
    let config =
      { Cert.Certifier.default_config with
        Cert.Certifier.domains;
        refine = Cert.Certifier.Fraction 0.5 }
    in
    (Cert.Certifier.certify ~config net ~input ~delta).Cert.Certifier.eps
  in
  let seq = run 1 and par = run 3 in
  for j = 0 to 1 do
    if seq.(j) <> par.(j) then
      Alcotest.failf "parallel differs at output %d: %.12g vs %.12g" j
        seq.(j) par.(j)
  done

(* --- Fig. 4 regression: pin the paper's numbers --- *)

let check_iv name expected got tol =
  if Float.abs (expected.Interval.lo -. got.Interval.lo) > tol
     || Float.abs (expected.Interval.hi -. got.Interval.hi) > tol
  then
    Alcotest.failf "%s: expected %s, got %s" name
      (Interval.to_string expected) (Interval.to_string got)

let test_fig4_values () =
  let entries = Exp.Fig4.run () in
  List.iter
    (fun (e : Exp.Fig4.entry) ->
      match (e.Exp.Fig4.name, e.Exp.Fig4.paper) with
      (* our BTNE-LPR is tighter than the paper's (documented) *)
      | "global BTNE-LPR", _ -> ()
      | "local LPR", Some _ ->
          check_iv e.Exp.Fig4.name
            (Interval.make 0.0 0.14375)
            e.Exp.Fig4.computed 1e-6
      | name, Some paper -> check_iv name paper e.Exp.Fig4.computed 1e-6
      | _, None -> ())
    entries

(* --- refinement scoring --- *)

let test_scores () =
  Alcotest.(check bool) "stable active scores 0" true
    (Cert.Refine.triangle_score (Interval.make 0.1 2.0) = 0.0);
  Alcotest.(check bool) "stable inactive scores 0" true
    (Cert.Refine.triangle_score (Interval.make (-2.0) (-0.1)) = 0.0);
  Alcotest.(check bool) "unstable scores positive" true
    (Cert.Refine.triangle_score (Interval.make (-1.0) 1.0) > 0.0);
  (* the paper's formula: -ab/(b-a) *)
  Alcotest.(check bool) "triangle value" true
    (feq (Cert.Refine.triangle_score (Interval.make (-1.0) 3.0)) 0.75);
  Alcotest.(check bool) "chord value" true
    (feq
       (Cert.Refine.chord_score
          ~y:(Interval.make (-1.0) 1.0)
          ~dy:(Interval.make (-0.2) 0.3))
       0.3)

let test_select_top () =
  let net = fig1_net () in
  let bounds =
    Cert.Bounds.create net
      ~input:(Cert.Bounds.box_domain net ~lo:(-1.0) ~hi:1.0)
      ~input_dist:(Cert.Bounds.uniform_delta net 0.1)
  in
  Cert.Interval_prop.propagate net bounds;
  let selected =
    Cert.Refine.select bounds ~candidates:[ (0, 0); (0, 1) ] ~r:1
  in
  Alcotest.(check int) "select 1" 1 (List.length selected);
  let all = Cert.Refine.select bounds ~candidates:[ (0, 0); (0, 1) ] ~r:5 in
  Alcotest.(check int) "select capped by candidates" 2 (List.length all)

(* --- local robustness --- *)

let test_local_ordering () =
  let rng = rng0 () in
  let net = random_net ~rng ~dims:[ 2; 6; 4; 1 ] ~relu_last:false in
  let x0 = [| 0.3; -0.2 |] in
  let delta = 0.05 in
  let ex = (Cert.Local.exact net ~x0 ~delta).Cert.Local.range.(0) in
  let nd = (Cert.Local.nd ~window:1 net ~x0 ~delta).Cert.Local.range.(0) in
  let lpr = (Cert.Local.lpr net ~x0 ~delta).Cert.Local.range.(0) in
  Alcotest.(check bool) "exact within nd" true
    (Interval.subset ex (Interval.grow 1e-7 nd));
  Alcotest.(check bool) "exact within lpr" true
    (Interval.subset ex (Interval.grow 1e-7 lpr));
  (* the true output at x0 lies in every range *)
  let out = (Nn.Network.forward net x0).(0) in
  Alcotest.(check bool) "forward in exact range" true
    (Interval.contains (Interval.grow 1e-7 ex) out)

let test_local_domain_clip () =
  let net = fig1_net () in
  let domain = Cert.Bounds.box_domain net ~lo:0.0 ~hi:1.0 in
  (* x0 at the domain corner: the ball must be clipped *)
  let r = Cert.Local.exact ~domain net ~x0:[| 0.0; 0.0 |] ~delta:0.2 in
  Alcotest.(check bool) "clipped nonneg" true
    (r.Cert.Local.range.(0).Interval.lo >= -.1e-9)

(* --- conv network certification --- *)

let test_conv_certification_sound () =
  let rng = rng0 () in
  let in_shape = { Nn.Layer.c = 1; h = 5; w = 5 } in
  let conv =
    Nn.Layer.conv2d_random ~relu:true ~rng ~in_shape ~out_chans:2 ~kh:3 ~kw:3
      ~stride:2 ~pad:0 ()
  in
  let flat = Nn.Layer.out_dim conv in
  let net =
    Nn.Network.make
      [ conv;
        Nn.Layer.dense_random ~relu:true ~rng ~in_dim:flat ~out_dim:4 ();
        Nn.Layer.dense_random ~rng ~in_dim:4 ~out_dim:1 () ]
  in
  let delta = 0.02 in
  let input = Cert.Bounds.box_domain net ~lo:0.0 ~hi:1.0 in
  let config =
    { Cert.Certifier.default_config with Cert.Certifier.window = 2 }
  in
  let eps =
    (Cert.Certifier.certify ~config net ~input ~delta).Cert.Certifier.eps.(0)
  in
  let sampled =
    sample_variation ~rng net ~lo:0.0 ~hi:1.0 ~delta ~j:0 ~n:300
  in
  Alcotest.(check bool) "conv sound" true (eps >= sampled -. 1e-9);
  (* compare with the exact answer only if it finishes within budget
     (a capped bound would not be a valid reference point) *)
  let milp_options =
    { Milp.default_options with Milp.time_limit = 20.0 }
  in
  let exact = Cert.Exact.global_btne ~milp_options net ~input ~delta in
  if exact.Cert.Exact.exact then
    Alcotest.(check bool) "conv ordering" true
      (eps >= exact.Cert.Exact.eps.(0) -. 1e-6)

(* property: algorithm 1 is sound on random small nets *)
let algo1_sound_prop =
  let gen = QCheck.Gen.(pair (int_range 0 100000) (int_range 2 5)) in
  Test_seed.to_alcotest
    (QCheck.Test.make ~count:15 ~name:"algo1 sound on random nets"
       (QCheck.make gen)
       (fun (seed, width) ->
         let rng = Random.State.make [| seed |] in
         let net =
           random_net ~rng ~dims:[ 2; width; width; 1 ] ~relu_last:false
         in
         let delta = 0.05 in
         let input = Cert.Bounds.box_domain net ~lo:(-1.0) ~hi:1.0 in
         let eps =
           (Cert.Certifier.certify net ~input ~delta).Cert.Certifier.eps.(0)
         in
         let sampled =
           sample_variation ~rng net ~lo:(-1.0) ~hi:1.0 ~delta ~j:0 ~n:150
         in
         eps >= sampled -. 1e-9))

(* property: exact certifier is itself certified by sampling, and algo1
   dominates exact *)
let algo1_dominates_exact_prop =
  let gen = QCheck.Gen.int_range 0 100000 in
  Test_seed.to_alcotest
    (QCheck.Test.make ~count:10 ~name:"algo1 >= exact on random nets"
       (QCheck.make gen)
       (fun seed ->
         let rng = Random.State.make [| seed |] in
         let net = random_net ~rng ~dims:[ 2; 3; 3; 1 ] ~relu_last:false in
         let delta = 0.1 in
         let input = Cert.Bounds.box_domain net ~lo:(-1.0) ~hi:1.0 in
         let exact =
           (Cert.Exact.global_btne net ~input ~delta).Cert.Exact.eps.(0)
         in
         let ours =
           (Cert.Certifier.certify net ~input ~delta).Cert.Certifier.eps.(0)
         in
         ours >= exact -. 1e-6))

let suites =
  [ ( "cert:interval",
      [ Alcotest.test_case "basics" `Quick test_interval_basics;
        Alcotest.test_case "invalid" `Quick test_interval_invalid;
        Alcotest.test_case "ops" `Quick test_interval_ops;
        relu_dist_sound ] );
    ( "cert:interval-prop",
      [ Alcotest.test_case "global soundness" `Quick test_interval_prop_sound;
        Alcotest.test_case "forward containment" `Quick
          test_interval_prop_forward_containment ] );
    ( "cert:symbolic",
      [ Alcotest.test_case "tighter than interval" `Quick
          test_symbolic_tighter_than_interval;
        Alcotest.test_case "sound" `Quick test_symbolic_sound;
        Alcotest.test_case "forward containment" `Quick
          test_symbolic_forward_containment;
        Alcotest.test_case "affine eval" `Quick test_symbolic_affine_eval;
        Alcotest.test_case "pinned bits on dnn2-dnn5" `Quick
          test_symbolic_pinned_bits ] );
    ( "cert:symbolic-back",
      [ Alcotest.test_case "zero coeff on unbounded input" `Quick
          test_eval_range_zero_coeff_unbounded;
        Alcotest.test_case "unbounded box stays finite" `Quick
          test_back_unbounded_box_no_nan;
        back_tightness_chain_prop;
        back_sound_prop ] );
    ( "cert:subnet",
      [ Alcotest.test_case "full window" `Quick test_cone_full_window;
        Alcotest.test_case "window clamp" `Quick test_cone_window_clamp;
        Alcotest.test_case "conv sparsity" `Quick test_cone_conv_sparsity;
        Alcotest.test_case "bad target" `Quick test_cone_bad_target ] );
    ( "cert:exact",
      [ Alcotest.test_case "matches forward samples" `Quick
          test_exact_encoding_matches_forward;
        Alcotest.test_case "btne = itne" `Quick test_exact_btne_equals_itne;
        Alcotest.test_case "reluplex = milp" `Quick test_reluplex_equals_milp
      ] );
    ( "cert:ordering",
      [ Alcotest.test_case "all methods dominate exact" `Slow
          test_method_ordering;
        Alcotest.test_case "itne tighter than btne" `Quick
          test_itne_tighter_than_btne;
        algo1_sound_prop;
        algo1_dominates_exact_prop ] );
    ( "cert:certifier",
      [ Alcotest.test_case "refinement tightens" `Quick
          test_refinement_tightens;
        Alcotest.test_case "delta monotone" `Quick test_delta_monotone;
        Alcotest.test_case "zero delta" `Quick test_zero_delta;
        Alcotest.test_case "full window + refined = exact" `Quick
          test_full_window_all_refined_is_exact;
        Alcotest.test_case "exact mode = itne-nd variant" `Quick
          test_exact_mode_equals_itne_nd;
        Alcotest.test_case "parallel identical" `Quick
          test_parallel_identical;
        Alcotest.test_case "conv certification sound" `Slow
          test_conv_certification_sound ] );
    ( "cert:fig4",
      [ Alcotest.test_case "paper values" `Slow test_fig4_values ] );
    ( "cert:refine",
      [ Alcotest.test_case "scores" `Quick test_scores;
        Alcotest.test_case "select top" `Quick test_select_top ] );
    ( "cert:local",
      [ Alcotest.test_case "ordering" `Quick test_local_ordering;
        Alcotest.test_case "domain clip" `Quick test_local_domain_clip ] ) ]
