(** Plain-text tables.

    The bench harness prints one table per reproduced figure; this module
    handles column sizing and alignment so every figure reads uniformly. *)

type align = Left | Right

type t

val create : headers:string list -> t
(** @raise Invalid_argument on an empty header list. *)

val add_row : t -> string list -> unit
(** @raise Invalid_argument when the arity differs from the headers. *)

val render : ?align:align -> t -> string
(** Fully rendered table with a header separator line. *)

val print : ?align:align -> t -> unit
(** [render] to stdout followed by a newline flush. *)
