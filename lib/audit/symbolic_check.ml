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
  (* two independent analyses over the same propagated base *)
  let b_ip = Cert.Interval_prop.propagate_box net ~input ~delta in
  let b_sym = Bounds.copy b_ip in
  Cert.Symbolic.analyse net b_sym;
  (* 1. well-formedness of every symbolic interval *)
  add_all (Encoding.intervals ~name b_sym);
  (* 2. containment in interval propagation, per neuron and quantity.
     The pass tightens by meet, so a violation means a meet silently
     dropped a proven bound or produced a fresh interval from thin
     air. *)
  List.iter2
    (fun (what, (sm : I.t array array)) (_, (pm : I.t array array)) ->
      Array.iteri
        (fun i row ->
          Array.iteri
            (fun j (siv : I.t) ->
              let piv : I.t = pm.(i).(j) in
              if
                siv.I.lo < piv.I.lo -. slack tol piv.I.lo
                || siv.I.hi > piv.I.hi +. slack tol piv.I.hi
              then
                add
                  (Diag.make Diag.Error ~pass ~code:"not-contained"
                     ~loc:(Diag.loc ~neuron:(i, j) ~var:what name)
                     (Printf.sprintf
                        "symbolic interval %s is not contained in the \
                         interval-propagation interval %s"
                        (I.to_string siv) (I.to_string piv))))
            row)
        sm)
    (tables b_sym) (tables b_ip);
  (* 3. the symbolic bounds and the certified (LP-refined) bounds must
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
                               "symbolic interval %s is disjoint \
                                from the certified interval %s"
                               (I.to_string siv)
                               (I.to_string cm.(i).(j)))))
                 row)
             sm)
         (tables b_sym) (tables c));
  (* 4. sampled soundness: concrete twin pairs, forwarded through the
     real network, must land inside the symbolic intervals *)
  add_all (Encoding.bounds_soundness ~name ~samples ~tol net b_sym);
  List.rev !diags
