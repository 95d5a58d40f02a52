(** Ablations called out in DESIGN.md:

    - E8: tightness of ITNE vs BTNE (under ND and LPR) as network width
      grows — quantifies Sec. II-D's claim that interleaving preserves
      distance information.
    - E9: refinement budget [r] vs bound tightness and time.
    - E10: window size [W] vs bound tightness and time. *)

type itne_vs_btne_row = {
  width : int;
  eps_exact : float;
  eps_btne_nd : float;
  eps_btne_lpr : float;
  eps_itne_nd : float;
  eps_itne_lpr : float;
  eps_algo1 : float;
}

val itne_vs_btne : ?widths:int list -> ?delta:float -> unit ->
  itne_vs_btne_row list
(** Random 2-hidden-layer nets of growing width. *)

type sweep_row = { param : int; eps : float; time : float }

val refine_sweep :
  ?counts:int list -> ?delta:float -> Models.trained -> sweep_row list

val window_sweep :
  ?windows:int list -> ?delta:float -> Models.trained -> sweep_row list

type propagation_row = {
  p_width : int;
  eps_interval : float;
  eps_symbolic : float;
  eps_algo1 : float;
}

val propagation_sweep :
  ?widths:int list -> ?delta:float -> unit -> propagation_row list
(** E11: interval propagation vs the symbolic backward substitution
    ({!Cert.Symbolic.certify}) against Algorithm 1 on random nets of
    growing width. *)

val print_propagation : Format.formatter -> propagation_row list -> unit

val print_itne_vs_btne : Format.formatter -> itne_vs_btne_row list -> unit

val print_sweep : name:string -> Format.formatter -> sweep_row list -> unit
