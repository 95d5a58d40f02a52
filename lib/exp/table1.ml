type method_result = { time : float; eps : float array; complete : bool }

type row = {
  id : string;
  arch : string;
  neurons : int;
  reluplex : method_result option;
  milp : method_result option;
  ours : method_result;
  under : method_result;
}

let auto_mpg_config =
  { Cert.Certifier.default_config with
    Cert.Certifier.window = 2;
    refine = Cert.Certifier.Fraction 0.5;
    (* sub-problem caps keep the refined MILPs bounded on the widest
       nets; capped solves return sound best-bound results *)
    milp_options =
      { Milp.max_nodes = 3_000; time_limit = 5.0 } }

let digits_config =
  { Cert.Certifier.default_config with
    Cert.Certifier.window = 3;
    refine = Cert.Certifier.Count 30 }

let run ?(with_exact = true) ?(reluplex_nodes = 100_000) ?(milp_time = 600.0)
    ?(pgd_samples = 40) ~config ~delta (trained : Models.trained) =
  let net = trained.Models.net in
  let input = Cert.Bounds.box_domain net ~lo:0.0 ~hi:1.0 in
  let ours_report = Cert.Certifier.certify ~config net ~input ~delta in
  let ours =
    { time = ours_report.Cert.Certifier.runtime;
      eps = ours_report.Cert.Certifier.eps;
      complete = true }
  in
  let under_result =
    Attack.Global_under.sweep ~seed:97 ~max_samples:pgd_samples
      ~domain:input net ~xs:trained.Models.dataset.Data.Dataset.xs ~delta
  in
  let under =
    { time = under_result.Attack.Global_under.runtime;
      eps = under_result.Attack.Global_under.eps_under;
      complete = true }
  in
  let reluplex, milp =
    if not with_exact then (None, None)
    else begin
      let r = Cert.Reluplex_style.global ~max_nodes:reluplex_nodes net ~input
          ~delta in
      let milp_options =
        { Milp.default_options with Milp.time_limit = milp_time }
      in
      let m = Cert.Exact.global_btne ~milp_options net ~input ~delta in
      ( Some { time = r.Cert.Reluplex_style.runtime;
               eps = r.Cert.Reluplex_style.eps;
               complete = r.Cert.Reluplex_style.exact },
        Some { time = m.Cert.Exact.runtime;
               eps = m.Cert.Exact.eps;
               complete = m.Cert.Exact.exact } )
    end
  in
  { id = trained.Models.id;
    arch = Nn.Network.describe net;
    neurons = Nn.Network.hidden_neuron_count net;
    reluplex; milp; ours; under }

let pp_eps fmt eps =
  if Array.length eps = 1 then Format.fprintf fmt "%.4f" eps.(0)
  else begin
    Format.fprintf fmt "[";
    Array.iteri
      (fun i e ->
        if i > 0 then Format.fprintf fmt " ";
        Format.fprintf fmt "%.4f" e)
      eps;
    Format.fprintf fmt "]"
  end

let pp_method fmt = function
  | None -> Format.fprintf fmt "%14s %10s" "-" "-"
  | Some m ->
      Format.fprintf fmt "%13.2fs%s %a" m.time
        (if m.complete then " " else "*")
        pp_eps m.eps

let print fmt rows =
  Format.fprintf fmt
    "%-6s %8s | %-25s | %-25s | %-20s | %-20s@."
    "id" "neurons" "t_R (reluplex)  eps" "t_M (milp)  eps"
    "t_our  eps_over" "t_pgd  eps_under";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-6s %8d | %a | %a | %9.2fs %a | %9.2fs %a@."
        r.id r.neurons pp_method r.reluplex pp_method r.milp r.ours.time
        pp_eps r.ours.eps r.under.time pp_eps r.under.eps)
    rows;
  Format.fprintf fmt "(* = exact search hit its budget; bound still sound)@."
