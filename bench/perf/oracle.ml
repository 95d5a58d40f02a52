(* Correctness oracle, run outside the timed region.

   A certified eps is a sound over-approximation of the largest output
   change any delta-perturbation inside the box can cause, so it must
   lie above what projected gradient ascent finds from points of the box
   and below the plain interval-propagation bound that Algorithm 1
   starts from (plus the certifier's numerical margin). *)

let fail = Common.fail

let margin = Cert.Certifier.default_config.Cert.Certifier.margin

let pgd_points = 3

let interval_bound net (c : Cells.t) =
  Cert.Interval_prop.certify net
    ~input:(Cert.Bounds.box_domain net ~lo:c.Cells.lo ~hi:c.Cells.hi)
    ~delta:c.Cells.delta

let pgd_bound ~seed net (c : Cells.t) ~j =
  let domain = Cert.Bounds.box_domain net ~lo:c.Cells.lo ~hi:c.Cells.hi in
  let rng = Random.State.make [| seed; Hashtbl.hash (Cells.label c) |] in
  let dim = Nn.Network.input_dim net in
  let best = ref 0.0 in
  for _ = 1 to pgd_points do
    let x =
      Array.init dim (fun _ ->
          c.Cells.lo +. Random.State.float rng (c.Cells.hi -. c.Cells.lo))
    in
    best :=
      Float.max !best
        (Attack.Pgd.max_output_variation ~domain ~seed net ~x
           ~delta:c.Cells.delta ~j)
  done;
  !best

(* [upper] replaces the interval bound (the training surrogate). *)
let check ~seed ~what ?upper net (c : Cells.t) eps =
  let upper = match upper with Some u -> u | None -> interval_bound net c in
  if Array.length eps <> Array.length upper then
    fail "%s %s: %d outputs certified, expected %d" what (Cells.label c)
      (Array.length eps) (Array.length upper)
  else
    Array.iteri
      (fun j e ->
        let lower = pgd_bound ~seed net c ~j in
        let slack = margin +. (1e-9 *. Float.abs upper.(j)) in
        if not (lower <= e && e <= upper.(j) +. slack) then
          fail "%s %s output %d: eps %.17g outside [PGD %.17g, interval %.17g]"
            what (Cells.label c) j e lower upper.(j))
      eps
