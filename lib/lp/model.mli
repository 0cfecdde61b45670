(** Mutable mixed-integer linear program builder.

    The formulation modules of the TVNEP core construct one of these, then
    hand it to {!Simplex} (continuous relaxation) or to the [Mip] library
    (integer optimization).  Variables are identified by dense integer ids
    in creation order; those ids are what {!Expr} expressions refer to. *)

type t

type sense = Minimize | Maximize

type var_kind = Continuous | Integer | Binary

type var = private int
(** Variable handle; also usable directly as an {!Expr} variable id. *)

val create : ?name:string -> unit -> t

val name : t -> string

val add_var :
  t ->
  ?lb:float ->
  ?ub:float ->
  ?kind:var_kind ->
  string ->
  var
(** Adds a variable.  Defaults: [lb = 0.], [ub = infinity],
    [kind = Continuous].  [Binary] forces bounds into [0,1] (intersected
    with any given bounds).  @raise Invalid_argument when [lb > ub]. *)

val add_le : t -> ?name:string -> Expr.t -> float -> unit
(** [add_le m e rhs] adds the row [e <= rhs] (the expression's constant is
    moved to the right-hand side). *)

val add_ge : t -> ?name:string -> Expr.t -> float -> unit

val add_eq : t -> ?name:string -> Expr.t -> float -> unit

val add_range : t -> ?name:string -> lo:float -> hi:float -> Expr.t -> unit
(** [lo <= e <= hi].  @raise Invalid_argument when [lo > hi]. *)

val set_objective : t -> sense -> Expr.t -> unit
(** The expression's constant becomes the objective offset. *)

val objective : t -> sense * Expr.t

val fix_var : t -> var -> float -> unit
(** Sets both bounds to the given value. *)

val set_bounds : t -> var -> lb:float -> ub:float -> unit

val num_vars : t -> int
val num_constrs : t -> int

val var_of_id : t -> int -> var
(** @raise Invalid_argument when the id is out of range. *)

val var_name : t -> var -> string
val var_kind : t -> var -> var_kind
val var_lb : t -> var -> float
val var_ub : t -> var -> float

val is_mip : t -> bool
(** True when at least one variable is integer or binary. *)

val integer_vars : t -> var list

type row = { row_name : string; expr : Expr.t; lo : float; hi : float }

val rows : t -> row list
(** Rows in insertion order (expression constants already folded into the
    [lo]/[hi] bounds). *)

val pp : Format.formatter -> t -> unit
(** Human-readable dump of the whole model (for debugging small models). *)
