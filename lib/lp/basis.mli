(** Simplex basis representations.

    The revised simplex needs four operations against the basis matrix
    [B] (columns of [A] indexed by basis position): FTRAN ([B x = b]),
    BTRAN ([Bᵀ y = c]), extraction of one row of [B⁻¹], and a rank-one
    update after a pivot.  Three representations provide them:

    - {!Dense_inverse} — the explicit dense [B⁻¹], updated in product
      form on every pivot (O(m²) per operation).  Kept as the reference
      implementation for A/B property tests.
    - {!Factored_lu} — sparse LU factors ({!Lina.Lu.Sparse}) plus a
      product-form {e eta file}: each pivot appends one sparse eta column
      instead of patching an inverse, and every solve runs in
      O(nnz(factors) + nnz(etas)).  The caller refactorizes when
      {!eta_count} grows past its limit or the residual drifts.  Kept
      compilable as the A/B reference for the update form.
    - {!Updatable_lu} — Forrest–Tomlin: each pivot is absorbed into the
      factors in place ({!Lina.Lu.Sparse.ft_update}), so solves stay
      O(nnz(L)+nnz(U)+nnz(row etas)) where the row-eta file holds only
      elimination multipliers, not a full spike per pivot.  The caller
      refactorizes on measured fill growth ({!fill_ratio}) or residual
      drift, and when an update is {!Rejected}. *)

type kind = Dense_inverse | Factored_lu | Updatable_lu

type t

type update_result =
  | Applied of { work : int; added : int }
      (** The pivot is installed; [work] is the update's deterministic
          work (for clock billing), [added] the entries it appended to
          the representation (eta entries, or spike fill plus row-eta
          multipliers). *)
  | Rejected
      (** {!Updatable_lu} only: the spike's updated diagonal fell below
          the pivot tolerance, so the update form cannot represent this
          basis change stably.  The basis {e change} is fine — the
          caller must refactorize from the new basis before the next
          solve. *)

val create : kind -> int -> t
(** [create kind m] starts as the identity basis of dimension [m]. *)

val kind : t -> kind

val dim : t -> int

val eta_count : t -> int
(** Appended product-form eta columns since the last (re)factorization;
    always [0] for {!Dense_inverse} and {!Updatable_lu}. *)

val update_count : t -> int
(** Forrest–Tomlin updates absorbed since the last (re)factorization;
    always [0] for the other representations. *)

val fill_added : t -> int
(** Entries added to the factors by updates since the last
    (re)factorization (spike fill plus row-eta multipliers); [0] for the
    other representations. *)

val fill_ratio : t -> float
(** Current factor size relative to the fresh factorization
    ({!Lina.Lu.Sparse.ft_fill_ratio}); [1.0] for the other
    representations.  The fill-growth signal of the refactorization
    policy. *)

val solve_cost : t -> int
(** Deterministic {e upper bound} on the work of one FTRAN or BTRAN at
    the current representation size — [m²] dense,
    [nnz(L)+nnz(U)+nnz(etas)+m] factored, [nnz(factors)+m] updatable.
    Used to bill factorizations; the solve operations themselves return
    the work they actually performed (reach-bounded for the sparse
    representations), which is what the simplex bills to the budget
    clock. *)

val load_identity : t -> float array -> unit
(** [load_identity t signs] installs the basis [diag signs] (signs are
    ±1: the cold-start basis of logical and artificial columns), clearing
    any eta file. *)

val factorize : t -> (int -> (int -> float -> unit) -> unit) -> unit
(** [factorize t col] refactorizes from scratch; [col pos f] enumerates
    the basis column at position [pos].  Clears the eta file / absorbed
    updates.  {!Updatable_lu} refactorizes into storage the
    representation retains ({!Lina.Lu.Sparse.ft_refactorize}).
    @raise Lina.Lu.Singular on a (numerically) singular basis; the
    representation is then left unchanged. *)

val ftran_col : t -> ((int -> float -> unit) -> unit) -> float array -> int
(** [ftran_col t col w] accumulates [B⁻¹ a] into [w] (length [m],
    caller-zeroed), where [col f] enumerates the entries of [a].  Returns
    the work performed — reach-bounded sparse solves plus the eta file
    actually met (pivot-zero etas are skipped) for {!Factored_lu}, [m²]
    for {!Dense_inverse} — a deterministic function of the basis and the
    RHS, suitable for clock billing.  For {!Updatable_lu} the solve also
    stashes the column's spike, which a following {!update} consumes. *)

val ftran_in_place : t -> float array -> int
(** [ftran_in_place t b] overwrites the dense [b] (indexed by row) with
    [B⁻¹ b] (indexed by basis position).  Returns the work performed, as
    in {!ftran_col}. *)

val btran_in_place : t -> float array -> int
(** [btran_in_place t c] overwrites the dense [c] (indexed by basis
    position) with [B⁻ᵀ c] (indexed by row).  Returns the work
    performed. *)

val unit_row : t -> int -> float array -> int
(** [unit_row t r out] fills [out] (length [m]) with row [r] of [B⁻¹] —
    the BTRAN of [e_r], i.e. the pivot row of the dual simplex.  Returns
    the work performed. *)

val update : t -> r:int -> w:float array -> update_result
(** [update t ~r ~w] installs the pivot that makes column [w = B⁻¹ a_q]
    basic at position [r]: a product-form inverse patch (dense), an
    appended eta column (factored), or a Forrest–Tomlin in-place update
    (updatable — consumes the spike stashed by the FTRAN of the entering
    column, which must be the representation's most recent FTRAN).
    @raise Invalid_argument when [|w_r|] is below {!Lina.Tol.pivot}
    (dense/factored) or no spike is stashed (updatable). *)
