(* Sparse LU with eta-file updates for the revised simplex.

   Factorisation is left-looking over the basis columns taken in
   ascending-nonzero order (static Markowitz column control); the pivot
   of each column is chosen by threshold partial pivoting among the
   sparsest eligible rows (static row counts).  L is unit lower
   triangular and stored by step as multipliers on original row
   indices; U is stored by step as (step, value) pairs above a separate
   diagonal.  Both are flat CSC arrays: step k's entries are
   [lidx/lval.(lp.(k) .. lp.(k+1) - 1)] (likewise [up]/[uidx]/[uval]).
   Permutations:

     rowp.(k)  step k -> original row index of its pivot
     rowi.(i)  original row i -> its step (inverse of rowp)
     colp.(k)  step k -> basis position of the column eliminated at k

   Column k is eliminated only against the steps its pattern reaches
   through L (Gilbert & Peierls): a step outside the reach meets an
   exact zero and would be skipped anyway, so visiting the reach in
   ascending step order performs the same multiply-adds, in the same
   order, as a scan over every earlier step.

   Eta terms record simplex column replacements in product form:
   B_new = B_old . E with E = I except column [er] <- y, so FTRAN
   applies E^-1 after the LU solve (in push order) and BTRAN applies
   E^-T before it (in reverse order).  Term e's off-pivot entries are
   [eidx/evals.(ep.(e) .. ep.(e+1) - 1)].

   Every array is allocated by [create] or grown by doubling, then
   reused by later factorisations and eta pushes. *)

let singular_tol = 1e-12

type t = {
  m : int;
  rowp : int array;
  rowi : int array;
  colp : int array;
  udiag : float array;
  lp : int array;  (* m + 1 step offsets into lidx/lval *)
  mutable lidx : int array;
  mutable lval : float array;
  up : int array;  (* m + 1 step offsets into uidx/uval *)
  mutable uidx : int array;
  mutable uval : float array;
  mutable lu_nnz : int;
  (* eta file *)
  mutable ecount : int;
  mutable er : int array;  (* replaced basis position *)
  mutable epiv : float array;  (* y.(er) *)
  mutable ep : int array;  (* ecount + 1 term offsets into eidx/evals *)
  mutable eidx : int array;  (* off-pivot positions with y <> 0 *)
  mutable evals : float array;
  mutable enz : int;
  mutable unstable : bool;
  (* factorisation workspace: [w] is all zeros and [inpat] all false
     between columns *)
  w : float array;
  inpat : bool array;
  rcount : int array;  (* static row counts *)
  pat : int array;  (* rows of the current column's pattern *)
  reach : int array;  (* steps the current column reaches *)
  mark : int array;  (* step -> last column k whose reach holds it *)
  cstart : int array;  (* m + 1 offsets of the de-duplicated columns *)
  mutable cidx : int array;
  mutable cval : float array;
  bucket : int array;  (* counting sort on column nnz *)
  order : int array;
  (* solve scratch *)
  work : float array;  (* orig-row space FTRAN scratch *)
  workb : float array;  (* basis-position space BTRAN scratch *)
  workz : float array;  (* step space BTRAN scratch *)
  unitv : float array;  (* btran_unit right-hand side *)
}

let create m =
  let cap = max 8 (2 * m) in
  { m;
    rowp = Array.make m 0;
    rowi = Array.make m (-1);
    colp = Array.make m 0;
    udiag = Array.make m 0.0;
    lp = Array.make (m + 1) 0;
    lidx = Array.make cap 0;
    lval = Array.make cap 0.0;
    up = Array.make (m + 1) 0;
    uidx = Array.make cap 0;
    uval = Array.make cap 0.0;
    lu_nnz = m;
    ecount = 0;
    er = Array.make 8 0;
    epiv = Array.make 8 0.0;
    ep = Array.make 9 0;
    eidx = Array.make cap 0;
    evals = Array.make cap 0.0;
    enz = 0;
    unstable = false;
    w = Array.make m 0.0;
    inpat = Array.make m false;
    rcount = Array.make m 0;
    pat = Array.make m 0;
    reach = Array.make m 0;
    mark = Array.make m (-1);
    cstart = Array.make (m + 1) 0;
    cidx = Array.make cap 0;
    cval = Array.make cap 0.0;
    bucket = Array.make (m + 2) 0;
    order = Array.make m 0;
    work = Array.make m 0.0;
    workb = Array.make m 0.0;
    workz = Array.make m 0.0;
    unitv = Array.make m 0.0 }

(* [a] regrown to hold at least [need] entries, contents kept. *)
let grown_int a need =
  let b = Array.make (max need (2 * Array.length a)) 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let grown_float a need =
  let b = Array.make (max need (2 * Array.length a)) 0.0 in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Sort [a.(0 .. n - 1)], distinct steps below [k] all marked [k] in
   [mark], ascending: by insertion when that is cheap, else by a scan
   of the marks. *)
let sort_reach a n ~mark ~k =
  if n * n <= 4 * k then
    for q = 1 to n - 1 do
      let v = a.(q) in
      let p = ref (q - 1) in
      while !p >= 0 && a.(!p) > v do
        a.(!p + 1) <- a.(!p);
        decr p
      done;
      a.(!p + 1) <- v
    done
  else begin
    let c = ref 0 in
    for p = 0 to k - 1 do
      if mark.(p) = k then begin
        a.(!c) <- p;
        incr c
      end
    done
  end

exception Singular

let factor ?(tau = 0.01) t col =
  let m = t.m in
  let w = t.w and inpat = t.inpat and pat = t.pat in
  let rowp = t.rowp and rowi = t.rowi and rcount = t.rcount in
  (* Check every row index before touching the workspace. *)
  let total = ref 0 in
  for j = 0 to m - 1 do
    let idx, _ = col j in
    for q = 0 to Array.length idx - 1 do
      let i = idx.(q) in
      if i < 0 || i >= m then
        invalid_arg (Printf.sprintf "Lu.factor: row %d out of range" i)
    done;
    total := !total + Array.length idx
  done;
  if Array.length t.cidx < !total then begin
    t.cidx <- grown_int t.cidx !total;
    t.cval <- grown_float t.cval !total
  end;
  Array.fill rcount 0 m 0;
  Array.fill rowi 0 m (-1);
  Array.fill t.mark 0 m (-1);
  (* De-duplicated copies of the columns, each pattern in descending
     order of first appearance, plus static row counts for the
     Markowitz-style pivot preference. *)
  let cidx = t.cidx and cval = t.cval and cstart = t.cstart in
  let nz = ref 0 in
  for j = 0 to m - 1 do
    cstart.(j) <- !nz;
    let idx, vals = col j in
    let np = ref 0 in
    for q = 0 to Array.length idx - 1 do
      let i = idx.(q) in
      if not inpat.(i) then begin
        inpat.(i) <- true;
        pat.(!np) <- i;
        incr np
      end;
      w.(i) <- w.(i) +. vals.(q)
    done;
    for q = !np - 1 downto 0 do
      let i = pat.(q) in
      if w.(i) <> 0.0 then begin
        cidx.(!nz) <- i;
        cval.(!nz) <- w.(i);
        incr nz;
        rcount.(i) <- rcount.(i) + 1
      end;
      w.(i) <- 0.0;
      inpat.(i) <- false
    done
  done;
  cstart.(m) <- !nz;
  (* Ascending-nnz column order, index as tiebreak: a stable counting
     sort. *)
  let bucket = t.bucket and order = t.order in
  Array.fill bucket 0 (m + 2) 0;
  for j = 0 to m - 1 do
    let c = cstart.(j + 1) - cstart.(j) in
    bucket.(c + 1) <- bucket.(c + 1) + 1
  done;
  for c = 1 to m + 1 do
    bucket.(c) <- bucket.(c) + bucket.(c - 1)
  done;
  for j = 0 to m - 1 do
    let c = cstart.(j + 1) - cstart.(j) in
    order.(bucket.(c)) <- j;
    bucket.(c) <- bucket.(c) + 1
  done;
  let lp = t.lp and up = t.up and mark = t.mark and reach = t.reach in
  lp.(0) <- 0;
  up.(0) <- 0;
  t.ecount <- 0;
  t.enz <- 0;
  t.unstable <- false;
  let np = ref 0 in
  match
    for k = 0 to m - 1 do
      let j = order.(k) in
      (* Scatter column j into the dense work vector, and seed its reach
         with the steps that pivoted on its rows. *)
      np := 0;
      let nr = ref 0 in
      for q = cstart.(j) to cstart.(j + 1) - 1 do
        let i = cidx.(q) in
        w.(i) <- cval.(q);
        inpat.(i) <- true;
        pat.(!np) <- i;
        incr np;
        let s = rowi.(i) in
        if s >= 0 then begin
          mark.(s) <- k;
          reach.(!nr) <- s;
          incr nr
        end
      done;
      (* Close the reach over L: step p's fill lands on the rows of
         L(p), so it reaches the steps that pivoted on them. *)
      let h = ref 0 in
      while !h < !nr do
        let p = reach.(!h) in
        incr h;
        for q = lp.(p) to lp.(p + 1) - 1 do
          let s = rowi.(t.lidx.(q)) in
          if s >= 0 && mark.(s) <> k then begin
            mark.(s) <- k;
            reach.(!nr) <- s;
            incr nr
          end
        done
      done;
      let nr = !nr in
      sort_reach reach nr ~mark ~k;
      (* Forward-eliminate against the reached steps in ascending order.
         Fill created by step p lands only on rows still non-pivotal at
         p, whose own steps are > p, so one ascending pass suffices, and
         w.(rowp.(p)) is final once step p is reached. *)
      let un0 = up.(k) in
      if Array.length t.uidx < un0 + nr then begin
        t.uidx <- grown_int t.uidx (un0 + nr);
        t.uval <- grown_float t.uval (un0 + nr)
      end;
      let uidx = t.uidx and uval = t.uval and lidx = t.lidx
      and lval = t.lval in
      let un = ref un0 in
      for r = 0 to nr - 1 do
        let p = reach.(r) in
        let tv = w.(rowp.(p)) in
        if tv <> 0.0 then begin
          uidx.(!un) <- p;
          uval.(!un) <- tv;
          incr un;
          for q = lp.(p) to lp.(p + 1) - 1 do
            let i = lidx.(q) in
            if not inpat.(i) then begin
              inpat.(i) <- true;
              pat.(!np) <- i;
              incr np
            end;
            w.(i) <- w.(i) -. (lval.(q) *. tv)
          done
        end
      done;
      up.(k + 1) <- !un;
      (* Threshold partial pivoting among the not-yet-pivotal rows:
         within [tau] of the largest magnitude, prefer the sparsest
         static row, then the largest magnitude, then the lowest
         index. *)
      let maxabs = ref 0.0 in
      for q = 0 to !np - 1 do
        let i = pat.(q) in
        if rowi.(i) < 0 then begin
          let a = Float.abs w.(i) in
          if a > !maxabs then maxabs := a
        end
      done;
      if !maxabs <= singular_tol then raise Singular;
      let thresh = tau *. !maxabs in
      let best = ref (-1) and bestc = ref max_int and besta = ref 0.0 in
      for q = 0 to !np - 1 do
        let i = pat.(q) in
        if rowi.(i) < 0 then begin
          let a = Float.abs w.(i) in
          if a >= thresh then
            let better =
              rcount.(i) < !bestc
              || (rcount.(i) = !bestc
                 && (a > !besta || (a = !besta && (!best < 0 || i < !best))))
            in
            if better then begin
              best := i;
              bestc := rcount.(i);
              besta := a
            end
        end
      done;
      let pr = !best in
      let piv = w.(pr) in
      rowp.(k) <- pr;
      rowi.(pr) <- k;
      t.colp.(k) <- j;
      t.udiag.(k) <- piv;
      (* Multipliers for the remaining rows, in pattern order, become
         step k of L; the work vector is cleared on the way. *)
      let ln0 = lp.(k) in
      if Array.length lidx < ln0 + !np then begin
        t.lidx <- grown_int lidx (ln0 + !np);
        t.lval <- grown_float lval (ln0 + !np)
      end;
      let lidx = t.lidx and lval = t.lval in
      let ln = ref ln0 in
      for q = 0 to !np - 1 do
        let i = pat.(q) in
        if rowi.(i) < 0 && w.(i) <> 0.0 then begin
          lidx.(!ln) <- i;
          lval.(!ln) <- w.(i) /. piv;
          incr ln
        end;
        w.(i) <- 0.0;
        inpat.(i) <- false
      done;
      lp.(k + 1) <- !ln
    done
  with
  | () ->
      t.lu_nnz <- m + lp.(m) + up.(m);
      true
  | exception Singular ->
      (* leave the workspace clean for the next factorisation; the
         factors themselves are unusable until then *)
      for q = 0 to !np - 1 do
        w.(pat.(q)) <- 0.0;
        inpat.(pat.(q)) <- false
      done;
      false

(* --- FTRAN: B y = a --- *)

(* Solve L U (P x) = work in place, permuting the result into
   basis-position order in [dst], then replay the eta file. *)
let solve_lu_into t dst =
  let w = t.work and rowp = t.rowp in
  (* Forward substitution: L is unit lower triangular in step order. *)
  let lp = t.lp and lidx = t.lidx and lval = t.lval in
  for p = 0 to t.m - 1 do
    let tv = w.(rowp.(p)) in
    if tv <> 0.0 then
      for q = lp.(p) to lp.(p + 1) - 1 do
        let i = lidx.(q) in
        w.(i) <- w.(i) -. (lval.(q) *. tv)
      done
  done;
  (* Backward substitution against column-stored U. *)
  let up = t.up and uidx = t.uidx and uval = t.uval in
  for k = t.m - 1 downto 0 do
    let z = w.(rowp.(k)) /. t.udiag.(k) in
    dst.(t.colp.(k)) <- z;
    if z <> 0.0 then
      for q = up.(k) to up.(k + 1) - 1 do
        let pr = rowp.(uidx.(q)) in
        w.(pr) <- w.(pr) -. (uval.(q) *. z)
      done
  done

let apply_etas_ftran t dst =
  let ep = t.ep and eidx = t.eidx and evals = t.evals in
  for e = 0 to t.ecount - 1 do
    let er = t.er.(e) in
    let tv = dst.(er) /. t.epiv.(e) in
    dst.(er) <- tv;
    if tv <> 0.0 then
      for q = ep.(e) to ep.(e + 1) - 1 do
        dst.(eidx.(q)) <- dst.(eidx.(q)) -. (evals.(q) *. tv)
      done
  done

let ftran_pair t idx vals dst =
  let w = t.work in
  Array.fill w 0 t.m 0.0;
  for q = 0 to Array.length idx - 1 do
    w.(idx.(q)) <- w.(idx.(q)) +. vals.(q)
  done;
  solve_lu_into t dst;
  apply_etas_ftran t dst

let ftran_dense t rhs dst =
  Array.blit rhs 0 t.work 0 t.m;
  solve_lu_into t dst;
  apply_etas_ftran t dst

(* --- BTRAN: B^T pi = c --- *)

let btran_dense t c dst =
  let wb = t.workb and z = t.workz in
  Array.blit c 0 wb 0 t.m;
  (* Eta terms in reverse push order: E^T v = c leaves every component
     but [er] unchanged. *)
  let ep = t.ep and eidx = t.eidx and evals = t.evals in
  for e = t.ecount - 1 downto 0 do
    let er = t.er.(e) in
    let s = ref wb.(er) in
    for q = ep.(e) to ep.(e + 1) - 1 do
      s := !s -. (evals.(q) *. wb.(eidx.(q)))
    done;
    wb.(er) <- !s /. t.epiv.(e)
  done;
  (* U^T z = c-hat is lower triangular in step order. *)
  let up = t.up and uidx = t.uidx and uval = t.uval in
  for k = 0 to t.m - 1 do
    let s = ref wb.(t.colp.(k)) in
    for q = up.(k) to up.(k + 1) - 1 do
      s := !s -. (uval.(q) *. z.(uidx.(q)))
    done;
    z.(k) <- !s /. t.udiag.(k)
  done;
  (* L^T x = z is upper triangular in step order; step k of L only
     references rows with later steps, so a descending in-place sweep
     is well-founded. *)
  let lp = t.lp and lidx = t.lidx and lval = t.lval and rowi = t.rowi in
  for k = t.m - 1 downto 0 do
    let s = ref z.(k) in
    for q = lp.(k) to lp.(k + 1) - 1 do
      s := !s -. (lval.(q) *. z.(rowi.(lidx.(q))))
    done;
    z.(k) <- !s
  done;
  for k = 0 to t.m - 1 do
    dst.(t.rowp.(k)) <- z.(k)
  done

let btran_unit t r dst =
  Array.fill t.unitv 0 t.m 0.0;
  t.unitv.(r) <- 1.0;
  btran_dense t t.unitv dst

(* --- eta file --- *)

let push_eta t ~r ~y =
  let piv = y.(r) in
  let maxabs = ref 0.0 in
  let noff = ref 0 in
  for i = 0 to t.m - 1 do
    let a = Float.abs y.(i) in
    if a > !maxabs then maxabs := a;
    if i <> r && y.(i) <> 0.0 then incr noff
  done;
  let e = t.ecount in
  if e = Array.length t.er then begin
    t.er <- grown_int t.er (e + 1);
    t.epiv <- grown_float t.epiv (e + 1);
    t.ep <- grown_int t.ep (e + 2)
  end;
  let q0 = t.ep.(e) in
  if Array.length t.eidx < q0 + !noff then begin
    t.eidx <- grown_int t.eidx (q0 + !noff);
    t.evals <- grown_float t.evals (q0 + !noff)
  end;
  let q = ref q0 in
  for i = 0 to t.m - 1 do
    if i <> r && y.(i) <> 0.0 then begin
      t.eidx.(!q) <- i;
      t.evals.(!q) <- y.(i);
      incr q
    end
  done;
  t.er.(e) <- r;
  t.epiv.(e) <- piv;
  t.ep.(e + 1) <- !q;
  t.ecount <- e + 1;
  t.enz <- t.enz + 1 + !noff;
  if !maxabs = 0.0 then 0.0 else Float.abs piv /. !maxabs

let flag_unstable t = t.unstable <- true
let unstable t = t.unstable
let eta_count t = t.ecount
let eta_nnz t = t.enz
let lu_nnz t = t.lu_nnz
