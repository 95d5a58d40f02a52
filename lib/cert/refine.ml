type rule = No_refine | Count of int | Fraction of float

let budget rule candidates =
  match rule with
  | No_refine -> 0
  | Count r -> r
  | Fraction f ->
      int_of_float (Float.round (f *. float_of_int (List.length candidates)))

let triangle_score (iv : Interval.t) =
  let a = iv.Interval.lo and b = iv.Interval.hi in
  if a >= 0.0 || b <= 0.0 then 0.0 else -.b *. a /. (b -. a)

let chord_score ~(y : Interval.t) ~(dy : Interval.t) =
  let a = y.Interval.lo and b = y.Interval.hi in
  let c = dy.Interval.lo and d = dy.Interval.hi in
  let inactive = b <= 0.0 && b +. d <= 0.0 in
  let active = a >= 0.0 && a +. c >= 0.0 in
  if inactive || active then 0.0
  else Float.max (Float.abs c) (Float.abs d)

let neuron_score ~y ~dy = Float.max (triangle_score y) (chord_score ~y ~dy)

let select (bounds : Bounds.t) ~candidates ~r =
  if r <= 0 then []
  else begin
    let scored =
      List.filter_map
        (fun (i, j) ->
          let s =
            neuron_score ~y:bounds.Bounds.y.(i).(j)
              ~dy:bounds.Bounds.dy.(i).(j)
          in
          if s > 0.0 then Some ((i, j), s) else None)
        candidates
    in
    let sorted =
      List.sort (fun (_, s1) (_, s2) -> compare s2 s1) scored
    in
    List.filteri (fun k _ -> k < r) (List.map fst sorted)
  end
