(** Sparse LU factorisation of a square basis matrix, with an eta-file
    (product-form) update per column replacement.

    Built for the revised simplex: the basis [B] of a certification LP
    is extremely sparse (twin-network encodings average a handful of
    nonzeros per row), so an LU factorisation with sparsity-aware pivot
    selection plus forward/backward triangular solves (FTRAN/BTRAN)
    against sparse right-hand sides costs O(nnz) per solve where the
    dense explicit inverse costs O(m^2).

    Factorisation is left-looking with Markowitz-style pivot control:
    columns are processed in ascending-fill order and the pivot row of
    each column is the sparsest row whose magnitude is within a
    threshold factor [tau] of the largest eligible entry (threshold
    partial pivoting).  Each column is eliminated only against the
    earlier steps its pattern reaches through L (Gilbert & Peierls),
    visited in ascending step order, so a factorisation costs
    O(nnz + fill + reach) rather than O(m^2) and performs the same
    floating-point operations as a scan over every earlier step.
    L, U and the eta file are stored as flat column-compressed arrays.

    After a simplex pivot replaces one basis column, {!push_eta}
    appends a product-form eta term instead of refactorising; the
    solves replay the eta file after (FTRAN) or before (BTRAN) the
    triangular solves.  The caller decides when the eta file has grown
    or degraded enough to warrant a fresh {!factor} — see
    {!eta_count}, {!eta_nnz}, {!lu_nnz} and {!unstable}.

    A value of type [t] is a reusable workspace: {!factor} refactorises
    it in place, and its buffers (grown by doubling, never shrunk) serve
    every later factorisation and eta push, so a steady-state
    refactorisation allocates nothing.

    Index spaces: the matrix columns are given (and FTRAN results
    returned) in {e basis-position} space [0..m-1]; column entries and
    BTRAN results live in {e row} space [0..m-1].  A value of type [t]
    is single-threaded. *)

type t

val create : int -> t
(** [create m] is a workspace for [m] x [m] bases holding no
    factorisation yet: call {!factor} before any solve. *)

val factor : ?tau:float -> t -> (int -> int array * float array) -> bool
(** [factor t col] LU-factorises, in place, the [m] x [m] matrix whose
    [k]-th column has the (row, coefficient) entries [col k]; the eta
    file is emptied and the {!unstable} flag cleared.  Duplicate row
    entries are summed.  [tau] (default 0.01) is the threshold pivoting
    factor: rows within [tau] of the column's largest magnitude are
    pivot candidates, the sparsest wins.  Returns [false] when the
    matrix is singular to working precision (no candidate above
    [1e-12] in some column); [t] then holds no usable factorisation
    until the next successful [factor], which may reuse it.

    Raises [Invalid_argument] on a row index outside [0, m), before
    touching [t]. *)

val ftran_pair : t -> int array -> float array -> float array -> unit
(** [ftran_pair t idx vals dst] solves [B y = a] for the sparse
    right-hand side [a] given as (row, value) pairs and writes the
    dense solution over [dst] (length [m], fully overwritten),
    including every eta term pushed since factorisation. *)

val ftran_dense : t -> float array -> float array -> unit
(** [ftran_dense t rhs dst] — as {!ftran_pair} for a dense right-hand
    side.  [rhs] is not modified; [rhs] and [dst] must not alias. *)

val btran_dense : t -> float array -> float array -> unit
(** [btran_dense t c dst] solves [B^T pi = c] ([c] in basis-position
    space, read-only) and writes [pi] over [dst] (row space, fully
    overwritten).  This is the simplex-multiplier solve
    [pi = c_B B^-1]. *)

val btran_unit : t -> int -> float array -> unit
(** [btran_unit t r dst] writes row [r] of [B^-1] over [dst]
    (equivalently [B^-T e_r]); the dual simplex prices its pivot row
    with it. *)

val push_eta : t -> r:int -> y:float array -> float
(** [push_eta t ~r ~y] appends the product-form update for a simplex
    pivot that replaced the basic variable in position [r], where
    [y = B^-1 a_q] is the FTRAN of the entering column under the
    {e current} [t] (exactly the vector the ratio test used).  [y] is
    copied, not retained.  Returns the relative pivot magnitude
    [|y_r| / max_i |y_i|] (1.0 for a singleton), the caller's
    stability signal: small values mean the updated factorisation is
    ill-conditioned and a refactorisation is due. *)

val flag_unstable : t -> unit
(** Mark the factorisation numerically suspect; sticky until the next
    {!factor}. *)

val unstable : t -> bool

val eta_count : t -> int
(** Eta terms pushed since factorisation. *)

val eta_nnz : t -> int
(** Total nonzeros across the eta file (one pivot plus the off-pivot
    entries per term); the incremental cost every solve pays. *)

val lu_nnz : t -> int
(** Nonzeros in the L and U factors (diagonals included). *)
