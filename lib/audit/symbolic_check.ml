module Diag = Audit_core.Diag
module I = Cert.Interval
module Bounds = Cert.Bounds

let pass = "symbolic-check"

let slack tol m = tol *. Float.max 1.0 (Float.abs m)

let bad_interval (iv : I.t) =
  Float.is_nan iv.I.lo || Float.is_nan iv.I.hi || iv.I.lo > iv.I.hi

(* quantity tables of a bound state, in reporting order *)
let tables (b : Bounds.t) =
  [ ("y", b.Bounds.y); ("dy", b.Bounds.dy);
    ("x", b.Bounds.x); ("dx", b.Bounds.dx) ]

let iter_neurons f tbls =
  List.iter
    (fun (what, (mat : I.t array array)) ->
      Array.iteri (fun i row -> Array.iteri (fun j iv -> f what i j iv) row)
        mat)
    tbls

let check ?(name = "symbolic") ?(samples = 32) ?(tol = 1e-6) ?certified net
    ~input ~delta =
  let diags = ref [] in
  let add d = diags := d :: !diags in
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
  List.iter
    (fun (label, b) ->
      iter_neurons
        (fun what i j iv ->
          if bad_interval iv then
            add
              (Diag.make Diag.Error ~pass ~code:"invalid-interval"
                 ~loc:(Diag.loc ~neuron:(i, j) ~var:what name)
                 (Printf.sprintf "%s %s interval [%g, %g] is malformed"
                    label what iv.I.lo iv.I.hi)))
        (tables b))
    [ ("forward", b_fwd); ("backward", b_back) ];
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
  let dim = Nn.Network.input_dim net in
  let state = ref 0x5DEECE66 in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    float_of_int !state /. float_of_int 0x40000000
  in
  let pick (iv : I.t) u =
    let lo = Float.max iv.I.lo (-1e6) and hi = Float.min iv.I.hi 1e6 in
    if lo > hi then lo else lo +. (u *. (hi -. lo))
  in
  let within (iv : I.t) v =
    let eps = slack tol v in
    v >= iv.I.lo -. eps && v <= iv.I.hi +. eps
  in
  let seen = Hashtbl.create 32 in
  let report i j what iv v =
    if (not (within iv v)) && not (Hashtbl.mem seen (i, j, what)) then begin
      Hashtbl.replace seen (i, j, what) ();
      add
        (Diag.make Diag.Error ~pass ~code:"unsound-interval"
           ~loc:(Diag.loc ~neuron:(i, j) ~var:what name)
           (Printf.sprintf
              "concrete %s value %g escapes the backward-symbolic interval \
               %s"
              what v (I.to_string iv)))
    end
  in
  let clip k v =
    let iv = b_back.Bounds.input.(k) in
    Float.max iv.I.lo (Float.min iv.I.hi v)
  in
  let check_sample xa xb =
    let d_ok = ref true in
    Array.iteri
      (fun k _ ->
        if not (within b_back.Bounds.input_dist.(k) (xb.(k) -. xa.(k))) then
          d_ok := false)
      xa;
    if !d_ok then begin
      let pres_a, posts_a = Nn.Network.forward_all net xa in
      let pres_b, posts_b = Nn.Network.forward_all net xb in
      Array.iteri
        (fun i pa ->
          Array.iteri
            (fun j v ->
              report i j "y" b_back.Bounds.y.(i).(j) v;
              report i j "x" b_back.Bounds.x.(i).(j) posts_a.(i).(j);
              report i j "dy" b_back.Bounds.dy.(i).(j)
                (pres_b.(i).(j) -. v);
              report i j "dx" b_back.Bounds.dx.(i).(j)
                (posts_b.(i).(j) -. posts_a.(i).(j)))
            pa)
        pres_a
    end
  in
  let mk fa fd =
    let xa = Array.init dim (fun k -> pick b_back.Bounds.input.(k) (fa k)) in
    let xb =
      Array.init dim (fun k ->
          clip k (xa.(k) +. pick b_back.Bounds.input_dist.(k) (fd k)))
    in
    check_sample xa xb
  in
  mk (fun _ -> 0.5) (fun _ -> 0.5);
  mk (fun _ -> 0.0) (fun _ -> 1.0);
  mk (fun _ -> 1.0) (fun _ -> 0.0);
  for _ = 1 to Int.max 0 (samples - 3) do
    mk (fun _ -> next ()) (fun _ -> next ())
  done;
  List.rev !diags
