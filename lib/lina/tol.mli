(** Shared numerical tolerances for the linear-algebra and optimization
    layers.  All comparisons against zero in pivoting and feasibility tests
    go through these values so that the whole stack can be tuned in one
    place. *)

val eps : float
(** General-purpose absolute comparison tolerance, [1e-9]. *)

val feas : float
(** Feasibility tolerance for bound/row violations, [1e-7]. *)

val pivot : float
(** Minimal admissible magnitude of a simplex/LU pivot element, [1e-8]. *)

val is_zero : ?tol:float -> float -> bool
(** [is_zero x] is [true] when [abs_float x <= tol] (default {!eps}). *)
