module Mat = Linalg.Mat
module Sparse_row = Linalg.Sparse_row

type shape = { c : int; h : int; w : int }

let shape_size s = s.c * s.h * s.w

type kind =
  | Dense of { weight : Mat.t; bias : float array }
  | Conv2d of {
      in_shape : shape;
      out_chans : int;
      kh : int;
      kw : int;
      stride : int;
      pad : int;
      weight : float array;
      bias : float array;
    }
  | Avg_pool of { in_shape : shape; kh : int; kw : int; stride : int }
  | Normalize of { mul : float array; add : float array }

type t = { kind : kind; relu : bool }

let conv_out_shape ~in_shape ~out_chans ~kh ~kw ~stride ~pad =
  let h = ((in_shape.h + (2 * pad) - kh) / stride) + 1 in
  let w = ((in_shape.w + (2 * pad) - kw) / stride) + 1 in
  if h <= 0 || w <= 0 then invalid_arg "Layer: empty conv output";
  { c = out_chans; h; w }

let pool_out_shape ~in_shape ~kh ~kw ~stride =
  conv_out_shape ~in_shape ~out_chans:in_shape.c ~kh ~kw ~stride ~pad:0

let in_dim t =
  match t.kind with
  | Dense { weight; _ } -> weight.Mat.cols
  | Conv2d { in_shape; _ } | Avg_pool { in_shape; _ } -> shape_size in_shape
  | Normalize { mul; _ } -> Array.length mul

let out_shape t =
  match t.kind with
  | Dense _ | Normalize _ -> None
  | Conv2d { in_shape; out_chans; kh; kw; stride; pad; _ } ->
      Some (conv_out_shape ~in_shape ~out_chans ~kh ~kw ~stride ~pad)
  | Avg_pool { in_shape; kh; kw; stride } ->
      Some (pool_out_shape ~in_shape ~kh ~kw ~stride)

let out_dim t =
  match t.kind with
  | Dense { weight; _ } -> weight.Mat.rows
  | Normalize { mul; _ } -> Array.length mul
  | Conv2d _ | Avg_pool _ ->
      (match out_shape t with Some s -> shape_size s | None -> assert false)

(* --- constructors --- *)

let dense ?(relu = false) ~weight ~bias () =
  if Array.length bias <> weight.Mat.rows then
    invalid_arg "Layer.dense: bias length";
  { kind = Dense { weight; bias }; relu }

let glorot rng fan_in fan_out =
  let limit = sqrt (6.0 /. float_of_int (fan_in + fan_out)) in
  fun () -> (Random.State.float rng 2.0 -. 1.0) *. limit

let dense_random ?(relu = false) ~rng ~in_dim ~out_dim () =
  let draw = glorot rng in_dim out_dim in
  let weight = Mat.init out_dim in_dim (fun _ _ -> draw ()) in
  { kind = Dense { weight; bias = Array.make out_dim 0.0 }; relu }

let conv2d ?(relu = false) ~in_shape ~out_chans ~kh ~kw ~stride ~pad ~weight
    ~bias () =
  if stride <= 0 then invalid_arg "Layer.conv2d: stride";
  if Array.length weight <> out_chans * in_shape.c * kh * kw then
    invalid_arg "Layer.conv2d: weight length";
  if Array.length bias <> out_chans then invalid_arg "Layer.conv2d: bias";
  ignore (conv_out_shape ~in_shape ~out_chans ~kh ~kw ~stride ~pad);
  { kind = Conv2d { in_shape; out_chans; kh; kw; stride; pad; weight; bias };
    relu }

let conv2d_random ?(relu = false) ~rng ~in_shape ~out_chans ~kh ~kw ~stride
    ~pad () =
  let fan_in = in_shape.c * kh * kw in
  let draw = glorot rng fan_in (out_chans * kh * kw) in
  let weight = Array.init (out_chans * in_shape.c * kh * kw)
      (fun _ -> draw ()) in
  conv2d ~relu ~in_shape ~out_chans ~kh ~kw ~stride ~pad ~weight
    ~bias:(Array.make out_chans 0.0) ()

let avg_pool ~in_shape ~kh ~kw ~stride =
  if stride <= 0 then invalid_arg "Layer.avg_pool: stride";
  ignore (pool_out_shape ~in_shape ~kh ~kw ~stride);
  { kind = Avg_pool { in_shape; kh; kw; stride }; relu = false }

let normalize ~mul ~add =
  if Array.length mul <> Array.length add then
    invalid_arg "Layer.normalize: length mismatch";
  { kind = Normalize { mul; add }; relu = false }

(* --- evaluation --- *)

let weight_at ~in_chans ~kh ~kw weight oc ic ky kx =
  weight.((((((oc * in_chans) + ic) * kh) + ky) * kw) + kx)

let forward_pre t x =
  if Array.length x <> in_dim t then
    invalid_arg "Layer.forward_pre: input dimension";
  match t.kind with
  | Dense { weight; bias } ->
      let y = Mat.mul_vec weight x in
      Array.iteri (fun i b -> y.(i) <- y.(i) +. b) bias;
      y
  | Normalize { mul; add } ->
      Array.init (Array.length mul) (fun i -> (mul.(i) *. x.(i)) +. add.(i))
  | Conv2d { in_shape; out_chans; kh; kw; stride; pad; weight; bias } ->
      let os = conv_out_shape ~in_shape ~out_chans ~kh ~kw ~stride ~pad in
      let y = Array.make (shape_size os) 0.0 in
      let hw_in = in_shape.h * in_shape.w in
      for oc = 0 to out_chans - 1 do
        for oy = 0 to os.h - 1 do
          for ox = 0 to os.w - 1 do
            let acc = ref bias.(oc) in
            for ic = 0 to in_shape.c - 1 do
              for ky = 0 to kh - 1 do
                let iy = (oy * stride) - pad + ky in
                if iy >= 0 && iy < in_shape.h then
                  for kx = 0 to kw - 1 do
                    let ix = (ox * stride) - pad + kx in
                    if ix >= 0 && ix < in_shape.w then
                      acc := !acc
                             +. (weight_at ~in_chans:in_shape.c ~kh ~kw
                                   weight oc ic ky kx
                                 *. x.((ic * hw_in) + (iy * in_shape.w) + ix))
                  done
              done
            done;
            y.((oc * os.h * os.w) + (oy * os.w) + ox) <- !acc
          done
        done
      done;
      y
  | Avg_pool { in_shape; kh; kw; stride } ->
      let os = pool_out_shape ~in_shape ~kh ~kw ~stride in
      let y = Array.make (shape_size os) 0.0 in
      let hw_in = in_shape.h * in_shape.w in
      let inv = 1.0 /. float_of_int (kh * kw) in
      for ch = 0 to in_shape.c - 1 do
        for oy = 0 to os.h - 1 do
          for ox = 0 to os.w - 1 do
            let acc = ref 0.0 in
            for ky = 0 to kh - 1 do
              for kx = 0 to kw - 1 do
                let iy = (oy * stride) + ky and ix = (ox * stride) + kx in
                acc := !acc +. x.((ch * hw_in) + (iy * in_shape.w) + ix)
              done
            done;
            y.((ch * os.h * os.w) + (oy * os.w) + ox) <- !acc *. inv
          done
        done
      done;
      y

let forward t x =
  let y = forward_pre t x in
  if t.relu then Array.map (fun v -> Float.max 0.0 v) y else y

let vjp_linear t dy =
  if Array.length dy <> out_dim t then
    invalid_arg "Layer.vjp_linear: gradient dimension";
  match t.kind with
  | Dense { weight; _ } -> Mat.tmul_vec weight dy
  | Normalize { mul; _ } ->
      Array.init (Array.length mul) (fun i -> mul.(i) *. dy.(i))
  | Conv2d { in_shape; out_chans; kh; kw; stride; pad; weight; _ } ->
      let os = conv_out_shape ~in_shape ~out_chans ~kh ~kw ~stride ~pad in
      let dx = Array.make (shape_size in_shape) 0.0 in
      let hw_in = in_shape.h * in_shape.w in
      for oc = 0 to out_chans - 1 do
        for oy = 0 to os.h - 1 do
          for ox = 0 to os.w - 1 do
            let g = dy.((oc * os.h * os.w) + (oy * os.w) + ox) in
            if g <> 0.0 then
              for ic = 0 to in_shape.c - 1 do
                for ky = 0 to kh - 1 do
                  let iy = (oy * stride) - pad + ky in
                  if iy >= 0 && iy < in_shape.h then
                    for kx = 0 to kw - 1 do
                      let ix = (ox * stride) - pad + kx in
                      if ix >= 0 && ix < in_shape.w then begin
                        let i = (ic * hw_in) + (iy * in_shape.w) + ix in
                        dx.(i) <- dx.(i)
                                  +. (g *. weight_at ~in_chans:in_shape.c
                                        ~kh ~kw weight oc ic ky kx)
                      end
                    done
                done
              done
          done
        done
      done;
      dx
  | Avg_pool { in_shape; kh; kw; stride } ->
      let os = pool_out_shape ~in_shape ~kh ~kw ~stride in
      let dx = Array.make (shape_size in_shape) 0.0 in
      let hw_in = in_shape.h * in_shape.w in
      let inv = 1.0 /. float_of_int (kh * kw) in
      for ch = 0 to in_shape.c - 1 do
        for oy = 0 to os.h - 1 do
          for ox = 0 to os.w - 1 do
            let g = dy.((ch * os.h * os.w) + (oy * os.w) + ox) *. inv in
            if g <> 0.0 then
              for ky = 0 to kh - 1 do
                for kx = 0 to kw - 1 do
                  let iy = (oy * stride) + ky and ix = (ox * stride) + kx in
                  let i = (ch * hw_in) + (iy * in_shape.w) + ix in
                  dx.(i) <- dx.(i) +. g
                done
              done
          done
        done
      done;
      dx

let linear_row t j =
  if j < 0 || j >= out_dim t then invalid_arg "Layer.linear_row: index";
  match t.kind with
  | Dense { weight; bias } ->
      let coeffs = ref [] in
      for k = Mat.(weight.cols) - 1 downto 0 do
        let c = Mat.get weight j k in
        if c <> 0.0 then coeffs := (k, c) :: !coeffs
      done;
      Sparse_row.make !coeffs bias.(j)
  | Normalize { mul; add } -> Sparse_row.make [ (j, mul.(j)) ] add.(j)
  | Conv2d { in_shape; out_chans; kh; kw; stride; pad; weight; bias } ->
      let os = conv_out_shape ~in_shape ~out_chans ~kh ~kw ~stride ~pad in
      let hw_out = os.h * os.w in
      let oc = j / hw_out in
      let oy = j mod hw_out / os.w in
      let ox = j mod os.w in
      let hw_in = in_shape.h * in_shape.w in
      let coeffs = ref [] in
      for ic = 0 to in_shape.c - 1 do
        for ky = 0 to kh - 1 do
          let iy = (oy * stride) - pad + ky in
          if iy >= 0 && iy < in_shape.h then
            for kx = 0 to kw - 1 do
              let ix = (ox * stride) - pad + kx in
              if ix >= 0 && ix < in_shape.w then begin
                let c =
                  weight_at ~in_chans:in_shape.c ~kh ~kw weight oc ic ky kx
                in
                if c <> 0.0 then
                  coeffs :=
                    ((ic * hw_in) + (iy * in_shape.w) + ix, c) :: !coeffs
              end
            done
        done
      done;
      Sparse_row.make !coeffs bias.(oc)
  | Avg_pool { in_shape; kh; kw; stride } ->
      let os = pool_out_shape ~in_shape ~kh ~kw ~stride in
      let hw_out = os.h * os.w in
      let ch = j / hw_out in
      let oy = j mod hw_out / os.w in
      let ox = j mod os.w in
      let hw_in = in_shape.h * in_shape.w in
      let inv = 1.0 /. float_of_int (kh * kw) in
      let coeffs = ref [] in
      for ky = 0 to kh - 1 do
        for kx = 0 to kw - 1 do
          let iy = (oy * stride) + ky and ix = (ox * stride) + kx in
          coeffs := ((ch * hw_in) + (iy * in_shape.w) + ix, inv) :: !coeffs
        done
      done;
      Sparse_row.make !coeffs 0.0

(* Inverse of [linear_row]'s indexing: where a gradient with respect to
   a row coefficient or constant lands in the parameter arrays. *)
let grad_sinks t grads =
  match (t.kind, grads) with
  | Dense { weight; _ }, [ dw; db ] ->
      let cols = weight.Mat.cols in
      ( (fun j k g -> dw.((j * cols) + k) <- dw.((j * cols) + k) +. g),
        fun j g -> db.(j) <- db.(j) +. g )
  | Conv2d { in_shape; out_chans; kh; kw; stride; pad; _ }, [ dw; db ] ->
      let os = conv_out_shape ~in_shape ~out_chans ~kh ~kw ~stride ~pad in
      let hw_out = os.h * os.w in
      let hw_in = in_shape.h * in_shape.w in
      ( (fun j k g ->
          let oc = j / hw_out in
          let oy = j mod hw_out / os.w and ox = j mod os.w in
          let ic = k / hw_in in
          let iy = k mod hw_in / in_shape.w and ix = k mod in_shape.w in
          let ky = iy - ((oy * stride) - pad)
          and kx = ix - ((ox * stride) - pad) in
          let wi = (((((oc * in_shape.c) + ic) * kh) + ky) * kw) + kx in
          dw.(wi) <- dw.(wi) +. g),
        fun j g -> db.(j / hw_out) <- db.(j / hw_out) +. g )
  | Normalize _, [ dmul; dadd ] ->
      ( (fun j _k g -> dmul.(j) <- dmul.(j) +. g),
        fun j g -> dadd.(j) <- dadd.(j) +. g )
  | Avg_pool _, [] -> ((fun _ _ _ -> ()), fun _ _ -> ())
  | _ -> invalid_arg "Layer.grad_sinks: gradient structure mismatch"

(* --- parameters --- *)

let param_arrays t =
  match t.kind with
  | Dense { weight; bias } -> [ weight.Mat.data; bias ]
  | Conv2d { weight; bias; _ } -> [ weight; bias ]
  | Normalize { mul; add } -> [ mul; add ]
  | Avg_pool _ -> []

let alloc_grad_arrays t =
  List.map (fun a -> Array.make (Array.length a) 0.0) (param_arrays t)

let accum_param_grads t ~x ~dy grads =
  match (t.kind, grads) with
  | Dense { weight; _ }, [ dw; db ] ->
      let cols = weight.Mat.cols in
      for i = 0 to weight.Mat.rows - 1 do
        let g = dy.(i) in
        if g <> 0.0 then begin
          let base = i * cols in
          for k = 0 to cols - 1 do
            dw.(base + k) <- dw.(base + k) +. (g *. x.(k))
          done;
          db.(i) <- db.(i) +. g
        end
      done
  | Conv2d { in_shape; out_chans; kh; kw; stride; pad; _ }, [ dw; db ] ->
      let os = conv_out_shape ~in_shape ~out_chans ~kh ~kw ~stride ~pad in
      let hw_in = in_shape.h * in_shape.w in
      for oc = 0 to out_chans - 1 do
        for oy = 0 to os.h - 1 do
          for ox = 0 to os.w - 1 do
            let g = dy.((oc * os.h * os.w) + (oy * os.w) + ox) in
            if g <> 0.0 then begin
              db.(oc) <- db.(oc) +. g;
              for ic = 0 to in_shape.c - 1 do
                for ky = 0 to kh - 1 do
                  let iy = (oy * stride) - pad + ky in
                  if iy >= 0 && iy < in_shape.h then
                    for kx = 0 to kw - 1 do
                      let ix = (ox * stride) - pad + kx in
                      if ix >= 0 && ix < in_shape.w then begin
                        let wi =
                          (((((oc * in_shape.c) + ic) * kh) + ky) * kw) + kx
                        in
                        dw.(wi) <- dw.(wi)
                                   +. (g *. x.((ic * hw_in)
                                               + (iy * in_shape.w) + ix))
                      end
                    done
                done
              done
            end
          done
        done
      done
  | Normalize { mul; _ }, [ dmul; dadd ] ->
      for i = 0 to Array.length mul - 1 do
        dmul.(i) <- dmul.(i) +. (dy.(i) *. x.(i));
        dadd.(i) <- dadd.(i) +. dy.(i)
      done
  | Avg_pool _, [] -> ()
  | (Dense _ | Conv2d _ | Normalize _ | Avg_pool _), _ ->
      invalid_arg "Layer.accum_param_grads: gradient structure mismatch"
