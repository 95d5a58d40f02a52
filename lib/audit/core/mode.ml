(* The one switch is the solver's own flag, parsed from GRC_AUDIT once
   in [Lp.Simplex]. *)
let enabled () = !Lp.Simplex.audit_mode

let set b = Lp.Simplex.audit_mode := b

let with_enabled b f =
  let saved = enabled () in
  set b;
  Fun.protect ~finally:(fun () -> set saved) f

let report diags =
  match diags with
  | [] -> ()
  | _ ->
      List.iter
        (fun d -> Format.eprintf "[audit] %a@." Diag.pp d)
        (Diag.sort diags);
      let errs = Diag.errors diags in
      if errs <> [] then raise (Diag.Audit_failure diags)
