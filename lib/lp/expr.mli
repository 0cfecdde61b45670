(** Linear expressions over integer variable ids.

    An expression is a finite map from variable id to coefficient plus a
    constant term.  This is the currency of the modeling layer: objective
    functions and constraint left-hand sides are expressions.

    Invariant: no stored coefficient is within [Lina.Tol.eps] of zero.
    Every operation keeps it by testing only the coefficients it changes
    (a sum that cancels drops its variable), so building an expression
    term by term costs O(log n) per term. *)

type t

val zero : t

val const : float -> t

val var : ?coeff:float -> int -> t
(** [var v] is the expression [1.0 * x_v]; [~coeff] scales it. *)

val of_terms : ?const:float -> (int * float) list -> t
(** Sums duplicate variables. *)

val add : t -> t -> t

val sub : t -> t -> t

val scale : float -> t -> t
(** [scale s e] is [s * e].  Products within [Lina.Tol.eps] of zero are
    dropped, like cancellations; a factor within [Lina.Tol.eps] of zero
    gives the constant 0. *)

val add_term : t -> int -> float -> t
(** [add_term e v c] is [e + c * x_v]. *)

val add_const : t -> float -> t

val sum : t list -> t

val coeff : t -> int -> float

val constant : t -> float

val terms : t -> (int * float) list
(** Terms in increasing variable order; every coefficient [c] has
    [|c| > Lina.Tol.eps]. *)

val num_terms : t -> int

val eval : t -> (int -> float) -> float
(** [eval e value_of] substitutes variable values. *)

val map_vars : (int -> int) -> t -> t
(** Renames variables (merging coefficients on collision). *)

val pp : ?name:(int -> string) -> unit -> Format.formatter -> t -> unit
(** Pretty-printer; [~name] customizes how variable ids render. *)
