(** The simplex basis: Forrest–Tomlin updatable sparse LU factors.

    The revised simplex needs four operations against the basis matrix
    [B] (columns of [A] indexed by basis position): FTRAN ([B x = b]),
    BTRAN ([Bᵀ y = c]), extraction of one row of [B⁻¹], and a rank-one
    update after a pivot.  The basis keeps sparse LU factors
    ({!Lina.Lu.Sparse}) and absorbs each pivot into them in place
    ({!Lina.Lu.Sparse.ft_update}), so solves stay
    O(nnz(L)+nnz(U)+nnz(row etas)) where the row-eta file holds only
    elimination multipliers, not a full spike per pivot.  The caller
    refactorizes on measured fill growth ({!fill_ratio}) or residual
    drift, and when an update is {!Rejected}. *)

type t

type update_result =
  | Applied of { work : int; added : int }
      (** The pivot is installed; [work] is the update's deterministic
          work (for clock billing), [added] the entries it appended to
          the factors (spike fill plus row-eta multipliers). *)
  | Rejected
      (** The spike's updated diagonal fell below the pivot tolerance, so
          the update form cannot represent this basis change stably.  The
          basis {e change} is fine — the caller must refactorize from the
          new basis before the next solve. *)

val create : int -> t
(** [create m] starts as the identity basis of dimension [m]. *)

val update_count : t -> int
(** Forrest–Tomlin updates absorbed since the last (re)factorization. *)

val fill_ratio : t -> float
(** Current factor size relative to the fresh factorization
    ({!Lina.Lu.Sparse.ft_fill_ratio}): the fill-growth signal of the
    refactorization policy. *)

val solve_cost : t -> int
(** Deterministic {e upper bound} on the work of one FTRAN or BTRAN at
    the current factor size, [nnz(factors)+m].  Used to bill
    factorizations; the solve operations themselves return the
    reach-bounded work they actually performed, which is what the simplex
    bills to the budget clock. *)

val load_identity : t -> float array -> unit
(** [load_identity t signs] installs the basis [diag signs] (signs are
    ±1: the cold-start basis of logical and artificial columns), clearing
    any absorbed updates. *)

val factorize : t -> (int -> (int -> float -> unit) -> unit) -> unit
(** [factorize t col] refactorizes from scratch into storage the basis
    retains ({!Lina.Lu.Sparse.ft_refactorize}); [col pos f] enumerates
    the basis column at position [pos].  Clears absorbed updates.
    @raise Lina.Lu.Singular on a (numerically) singular basis; the
    factors are then left unchanged. *)

val ftran_col : t -> ((int -> float -> unit) -> unit) -> float array -> int
(** [ftran_col t col w] accumulates [B⁻¹ a] into [w] (length [m],
    caller-zeroed), where [col f] enumerates the entries of [a].  Returns
    the reach-bounded work performed — a deterministic function of the
    basis and the RHS, suitable for clock billing.  The solve also
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

val update : t -> r:int -> update_result
(** [update t ~r] makes the column of the most recent FTRAN basic at
    position [r]: a Forrest–Tomlin in-place update that consumes the
    spike that FTRAN stashed.
    @raise Invalid_argument when no spike is stashed. *)
