(* Workload inputs: certification cells (a network, a uniform input box
   [lo, hi] per component, and a perturbation bound delta).

   Every workload has a fixed panel, the same for every seed, and a
   stream of seeded cells.  The panel carries the end-to-end numbers:
   eps_gmean and the per-layer counts are taken over it, so they repeat
   exactly across runs and seeds, and the certify workloads time it
   repeatedly, so that cells_per_s compares the same work from run to
   run (one seeded cell's certify time alone varies by up to 3x with its
   box).  The seeded cells vary what else gets certified and checked. *)

type t = { net : string; lo : float; hi : float; delta : float }

let label c = Printf.sprintf "%s[%.4f,%.4f]/%.5f" c.net c.lo c.hi c.delta

(* Each box certified on every net in turn. *)
let panel boxes nets =
  Array.of_list
    (List.concat_map
       (fun (lo, hi, delta) -> List.map (fun net -> { net; lo; hi; delta }) nets)
       boxes)

let widths = [| 1.0; 0.5; 0.75 |]

(* Seeded cells: delta uniform in [0.001, 0.004]; a box of width 1.0,
   0.5 or 0.75 (rotating, so every run gets the same mix of widths) at a
   uniform offset that keeps it inside [0, 1].  Nets rotate fastest.
   [salt] separates the streams of different workloads. *)
let seeded ~seed ~salt nets =
  let rng = Random.State.make [| seed; salt |] in
  let nets = Array.of_list nets in
  let k = ref 0 in
  fun () ->
    let i = !k in
    incr k;
    let net = nets.(i mod Array.length nets) in
    let w = widths.(i / Array.length nets mod Array.length widths) in
    let lo = Random.State.float rng (1.0 -. w) in
    let delta = 0.001 +. Random.State.float rng 0.003 in
    { net; lo; hi = Float.min 1.0 (lo +. w); delta }

let take n gen = Array.init n (fun _ -> gen ())
