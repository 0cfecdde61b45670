(** Compressed sparse column (CSC) matrices.

    The simplex solver stores the constraint matrix in this format: pricing
    and column extraction (FTRAN input) need fast access to whole columns.
    Matrices are immutable once built; assemble them with {!Builder}. *)

type t = private {
  rows : int;
  cols : int;
  col_ptr : int array;  (** length [cols + 1] *)
  row_idx : int array;  (** length [nnz], row index of each entry *)
  value : float array;  (** length [nnz] *)
}

module Builder : sig
  (** Mutable triplet accumulator.  Duplicate (row, col) entries are summed
      at {!finish} time. *)

  type b

  val create : rows:int -> cols:int -> b

  val add : b -> row:int -> col:int -> float -> unit
  (** Records a coefficient.  Near-zero values are kept (they may cancel
      or accumulate); cancellation is resolved at {!finish}.
      @raise Invalid_argument when out of bounds. *)

  val finish : b -> t
end

val rows : t -> int
val cols : t -> int
val nnz : t -> int

val of_dense : float array array -> t
(** [of_dense m] from a row-major dense matrix (rows of equal length). *)

val to_dense : t -> float array array

val get : t -> int -> int -> float
(** [get m i j]; binary search within column [j]. *)

val iter_col : t -> int -> (int -> float -> unit) -> unit
(** [iter_col m j f] applies [f row value] over the stored entries of
    column [j] without allocating. *)

val mult_vec : t -> float array -> float array
(** [mult_vec m x] is the dense product [m * x]. *)

val mult_trans_vec : t -> float array -> float array
(** [mult_trans_vec m y] is the dense product [mᵀ * y]. *)

val col_dot : t -> int -> float array -> float
(** [col_dot m j y] is the inner product of column [j] with dense [y] —
    the reduced-cost kernel of the simplex pricing loop. *)

val transpose : t -> t

val pp : Format.formatter -> t -> unit
