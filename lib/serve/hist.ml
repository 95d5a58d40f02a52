let n_buckets = 32

type t = {
  mutex : Mutex.t;
  counts : int array;            (* bucket i: (2^(i-1), 2^i] microseconds *)
  mutable n : int;
  mutable sum : float;           (* seconds *)
  mutable max_s : float;
}

let create () =
  { mutex = Mutex.create (); counts = Array.make n_buckets 0; n = 0;
    sum = 0.0; max_s = 0.0 }

let bucket_of_seconds s =
  let us = s *. 1e6 in
  if us <= 1.0 then 0
  else
    let b = int_of_float (Float.ceil (Float.log2 us)) in
    min (n_buckets - 1) (max 0 b)

let bucket_upper_seconds i = Float.of_int (1 lsl i) *. 1e-6

let add t s =
  let s = Float.max 0.0 s in
  Mutex.lock t.mutex;
  t.counts.(bucket_of_seconds s) <- t.counts.(bucket_of_seconds s) + 1;
  t.n <- t.n + 1;
  t.sum <- t.sum +. s;
  if s > t.max_s then t.max_s <- s;
  Mutex.unlock t.mutex

let count t =
  Mutex.lock t.mutex;
  let n = t.n in
  Mutex.unlock t.mutex;
  n

let mean t =
  Mutex.lock t.mutex;
  let r = if t.n = 0 then Float.nan else t.sum /. float_of_int t.n in
  Mutex.unlock t.mutex;
  r

let max_seconds t =
  Mutex.lock t.mutex;
  let r = t.max_s in
  Mutex.unlock t.mutex;
  r

let quantile_locked t q =
  if t.n = 0 then Float.nan
  else begin
    let target =
      int_of_float (Float.ceil (q *. float_of_int t.n)) |> max 1
    in
    let acc = ref 0 and result = ref (bucket_upper_seconds (n_buckets - 1)) in
    (try
       for i = 0 to n_buckets - 1 do
         acc := !acc + t.counts.(i);
         if !acc >= target then begin
           result := bucket_upper_seconds i;
           raise Exit
         end
       done
     with Exit -> ());
    (* no sample exceeds the max, so neither may a quantile: the top
       bucket's edge can be up to 2x above it *)
    Float.min !result t.max_s
  end

let quantile t q =
  Mutex.lock t.mutex;
  let r = quantile_locked t q in
  Mutex.unlock t.mutex;
  r

let to_json t =
  Mutex.lock t.mutex;
  let ms x = x *. 1e3 in
  let buckets =
    List.filter_map
      (fun i ->
        if t.counts.(i) = 0 then None
        else
          Some
            (Json.Obj
               [ ("le_ms", Json.Num (ms (bucket_upper_seconds i)));
                 ("n", Json.Num (float_of_int t.counts.(i))) ]))
      (List.init n_buckets Fun.id)
  in
  let mean_s = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n in
  let q p = if t.n = 0 then 0.0 else ms (quantile_locked t p) in
  let v =
    Json.Obj
      [ ("count", Json.Num (float_of_int t.n));
        ("mean_ms", Json.Num (ms mean_s));
        ("max_ms", Json.Num (ms t.max_s));
        ("p50_ms", Json.Num (q 0.5));
        ("p90_ms", Json.Num (q 0.9));
        ("p99_ms", Json.Num (q 0.99));
        ("buckets", Json.List buckets) ]
  in
  Mutex.unlock t.mutex;
  v
