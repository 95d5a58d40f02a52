module Diag = Audit_core.Diag
module I = Cert.Interval
module Bounds = Cert.Bounds

let pass = "symbolic-check"

let slack tol m = tol *. Float.max 1.0 (Float.abs m)

(* quantity tables of a bound state, in reporting order *)
let tables (b : Bounds.t) =
  [ ("y", b.Bounds.y); ("dy", b.Bounds.dy);
    ("x", b.Bounds.x); ("dx", b.Bounds.dx) ]

let check ?(name = "symbolic") ?(samples = 32) ?(tol = 1e-6) ?certified net
    ~input ~delta =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let add_all ds = List.iter add ds in
  let fresh () =
    let b =
      Bounds.create net ~input ~input_dist:(Bounds.uniform_delta net delta)
    in
    Cert.Interval_prop.propagate net b;
    b
  in
  (* three independent analyses over the same propagated base *)
  let b_ip = fresh () in
  let b_fwd = Bounds.copy b_ip in
  Cert.Symbolic.propagate net b_fwd;
  let b_back = Bounds.copy b_ip in
  Cert.Symbolic_back.analyse net b_back;
  (* 1. well-formedness of every symbolic interval *)
  add_all (Encoding.intervals ~name:(name ^ ":forward") b_fwd);
  add_all (Encoding.intervals ~name:(name ^ ":backward") b_back);
  (* 2. tightness chain: backward subset of forward subset of interval
     propagation, per neuron and quantity.  Both passes tighten by
     meet, so a violation means a meet silently dropped a proven bound
     or produced a fresh interval from thin air. *)
  let subset ~inner_label ~outer_label inner outer =
    List.iter2
      (fun (what, (im : I.t array array)) (_, (om : I.t array array)) ->
        Array.iteri
          (fun i row ->
            Array.iteri
              (fun j (iiv : I.t) ->
                let oiv : I.t = om.(i).(j) in
                if
                  iiv.I.lo < oiv.I.lo -. slack tol oiv.I.lo
                  || iiv.I.hi > oiv.I.hi +. slack tol oiv.I.hi
                then
                  add
                    (Diag.make Diag.Error ~pass ~code:"tightness-chain"
                       ~loc:(Diag.loc ~neuron:(i, j) ~var:what name)
                       (Printf.sprintf
                          "%s interval %s is not contained in the %s \
                           interval %s"
                          inner_label (I.to_string iiv) outer_label
                          (I.to_string oiv))))
              row)
          im)
      (tables inner) (tables outer)
  in
  subset ~inner_label:"forward-symbolic" ~outer_label:"interval-propagation"
    b_fwd b_ip;
  subset ~inner_label:"backward-symbolic" ~outer_label:"forward-symbolic"
    b_back b_fwd;
  (* 3. the backward bounds and the certified (LP-refined) bounds must
     agree on a nonempty region — both claim to enclose the same true
     reachable set, so an empty meet proves one of them unsound *)
  (match certified with
   | None -> ()
   | Some (c : Bounds.t) ->
       List.iter2
         (fun (what, (sm : I.t array array)) (_, (cm : I.t array array)) ->
           Array.iteri
             (fun i row ->
               Array.iteri
                 (fun j siv ->
                   match I.meet siv cm.(i).(j) with
                   | Some _ -> ()
                   | None ->
                       add
                         (Diag.make Diag.Error ~pass ~code:"empty-meet"
                            ~loc:(Diag.loc ~neuron:(i, j) ~var:what name)
                            (Printf.sprintf
                               "backward-symbolic interval %s is disjoint \
                                from the certified interval %s"
                               (I.to_string siv)
                               (I.to_string cm.(i).(j)))))
                 row)
             sm)
         (tables b_back) (tables c));
  (* 4. sampled soundness of the tightest claim: concrete twin pairs,
     forwarded through the real network, must land inside the backward
     intervals *)
  add_all
    (Encoding.bounds_soundness ~name:(name ^ ":backward") ~samples ~tol net
       b_back);
  List.rev !diags
