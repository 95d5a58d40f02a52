type itne_vs_btne_row = {
  width : int;
  eps_exact : float;
  eps_btne_nd : float;
  eps_btne_lpr : float;
  eps_itne_nd : float;
  eps_itne_lpr : float;
  eps_algo1 : float;
}

let random_net ~width ~seed =
  let rng = Random.State.make [| seed; width |] in
  Nn.Network.make
    [ Nn.Layer.dense_random ~relu:true ~rng ~in_dim:4 ~out_dim:width ();
      Nn.Layer.dense_random ~relu:true ~rng ~in_dim:width ~out_dim:width ();
      Nn.Layer.dense_random ~rng ~in_dim:width ~out_dim:1 () ]

let abs_eps ivs = Array.fold_left
    (fun acc iv -> Float.max acc (Cert.Interval.abs_max iv)) 0.0 ivs

let itne_vs_btne ?(widths = [ 2; 4; 6 ]) ?(delta = 0.02) () =
  (* the exact reference gets a time budget; its bound stays a sound
     over-approximation when capped *)
  let milp_options = { Milp.default_options with Milp.time_limit = 45.0 } in
  List.map
    (fun width ->
      let net = random_net ~width ~seed:5 in
      let input = Cert.Bounds.box_domain net ~lo:(-1.0) ~hi:1.0 in
      let exact = Cert.Exact.global_btne ~milp_options net ~input ~delta in
      let bnd =
        Cert.Variants.btne_nd ~milp_options ~window:1 net ~input ~delta
      in
      let blpr = Cert.Variants.btne_lpr net ~input ~delta in
      let ind =
        Cert.Variants.itne_nd ~milp_options ~window:1 net ~input ~delta
      in
      let ilpr = Cert.Variants.itne_lpr net ~input ~delta in
      let algo1 = Cert.Certifier.certify net ~input ~delta in
      { width;
        eps_exact = exact.Cert.Exact.eps.(0);
        eps_btne_nd = abs_eps bnd.Cert.Variants.delta_out;
        eps_btne_lpr = abs_eps blpr.Cert.Variants.delta_out;
        eps_itne_nd = abs_eps ind.Cert.Variants.delta_out;
        eps_itne_lpr = abs_eps ilpr.Cert.Variants.delta_out;
        eps_algo1 = algo1.Cert.Certifier.eps.(0) })
    widths

type sweep_row = { param : int; eps : float; time : float }

let max_eps eps = Array.fold_left Float.max 0.0 eps

let refine_sweep ?(counts = [ 0; 2; 4; 8; 16 ]) ?(delta = 0.001)
    (trained : Models.trained) =
  List.map
    (fun r ->
      let config =
        { Cert.Certifier.default_config with
          Cert.Certifier.window = 2;
          refine =
            (if r = 0 then Cert.Certifier.No_refine
             else Cert.Certifier.Count r) }
      in
      let rep =
        Cert.Certifier.certify_box ~config trained.Models.net ~lo:0.0 ~hi:1.0
          ~delta
      in
      { param = r; eps = max_eps rep.Cert.Certifier.eps;
        time = rep.Cert.Certifier.runtime })
    counts

let window_sweep ?(windows = [ 1; 2; 3 ]) ?(delta = 0.001)
    (trained : Models.trained) =
  List.map
    (fun w ->
      let config =
        { Cert.Certifier.default_config with
          Cert.Certifier.window = w;
          refine = Cert.Certifier.Fraction 0.5 }
      in
      let rep =
        Cert.Certifier.certify_box ~config trained.Models.net ~lo:0.0 ~hi:1.0
          ~delta
      in
      { param = w; eps = max_eps rep.Cert.Certifier.eps;
        time = rep.Cert.Certifier.runtime })
    windows

type propagation_row = {
  p_width : int;
  eps_interval : float;
  eps_symbolic : float;
  eps_algo1_plain : float;
  eps_algo1_symbolic : float;
}

let propagation_sweep ?(widths = [ 4; 8; 16 ]) ?(delta = 0.02) () =
  List.map
    (fun width ->
      let net = random_net ~width ~seed:9 in
      let input = Cert.Bounds.box_domain net ~lo:(-1.0) ~hi:1.0 in
      let ibp = Cert.Interval_prop.certify net ~input ~delta in
      let sym = Cert.Symbolic.certify net ~input ~delta in
      let algo config =
        max_eps (Cert.Certifier.certify ~config net ~input ~delta)
          .Cert.Certifier.eps
      in
      { p_width = width;
        eps_interval = Array.fold_left Float.max 0.0 ibp;
        eps_symbolic = Array.fold_left Float.max 0.0 sym;
        eps_algo1_plain = algo Cert.Certifier.default_config;
        eps_algo1_symbolic =
          algo
            { Cert.Certifier.default_config with
              Cert.Certifier.symbolic = Cert.Certifier.Sym_back } })
    widths

let print_propagation fmt rows =
  Format.fprintf fmt "%-7s %-12s %-12s %-14s %-14s@." "width" "interval"
    "symbolic" "algo1" "algo1+symbolic";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-7d %-12.5f %-12.5f %-14.5f %-14.5f@." r.p_width
        r.eps_interval r.eps_symbolic r.eps_algo1_plain r.eps_algo1_symbolic)
    rows

let print_itne_vs_btne fmt rows =
  Format.fprintf fmt "%-7s %-10s %-10s %-10s %-10s %-10s %-10s@." "width"
    "exact" "btne-nd" "btne-lpr" "itne-nd" "itne-lpr" "algo1";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-7d %-10.4f %-10.4f %-10.4f %-10.4f %-10.4f %-10.4f@."
        r.width r.eps_exact r.eps_btne_nd r.eps_btne_lpr r.eps_itne_nd
        r.eps_itne_lpr r.eps_algo1)
    rows

let print_sweep ~name fmt rows =
  Format.fprintf fmt "%-8s %-12s %-10s@." name "eps" "time";
  List.iter
    (fun r -> Format.fprintf fmt "%-8d %-12.5f %-10.3fs@." r.param r.eps r.time)
    rows
