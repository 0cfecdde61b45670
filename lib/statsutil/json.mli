(** Minimal JSON reading and writing — enough for the bench harness's
    machine-readable result files, without an external dependency.

    The writer pretty-prints with two-space indentation and renders
    non-finite numbers as [null] (JSON has no NaN/Infinity).  The parser
    accepts the full JSON value grammar over ASCII input; [\u] escapes
    outside ASCII decode to ['?']. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Rendered document, newline-terminated. *)

val to_compact_string : t -> string
(** Single-line rendering with no trailing newline — one JSONL record. *)

val of_string : string -> (t, string) result
(** Parses one JSON document; [Error] carries a message with the byte
    offset of the problem. *)

val member : string -> t -> t option
(** [member k (Obj ...)] is the field [k] if present; [None] on any other
    constructor. *)

val to_float : t -> float option

val to_list : t -> t list option

(** {2 Codec helpers}

    Shared by every versioned document in the repository (solver
    outcomes and their counters, service records and summaries), so a
    number is encoded and decoded the same way everywhere. *)

val of_float : float -> t
(** [Num f] for finite [f]; non-finite values become strings (["inf"],
    ["nan"]) because the writer would render them as [null] — so a
    decoded document gets back exactly the value it was encoded from. *)

val decode_float : t -> (float, string) result
(** Inverse of {!of_float}; [Null] decodes to [nan]. *)

val decode_int : t -> (int, string) result
(** A [Num], truncated to an integer. *)

module Syntax : sig
  val ( let* ) : ('a, 'e) result -> ('a -> ('b, 'e) result) -> ('b, 'e) result
end

val field : string -> t -> (t, string) result
(** The member [k], or [Error "missing field k"]. *)

val float_field : string -> t -> (float, string) result
(** {!field} then {!decode_float}; errors are prefixed with the field
    name. *)

val int_field : string -> t -> (int, string) result
(** {!field} then {!decode_int}; errors are prefixed with the field
    name. *)

val bool_field : string -> t -> (bool, string) result
(** {!field}, which must be a [Bool]; errors are prefixed with the field
    name. *)

val string_field : string -> t -> (string, string) result
(** {!field}, which must be a [Str]; errors are prefixed with the field
    name. *)

val enum_field :
  string -> (string -> 'a option) -> t -> ('a, string) result
(** [enum_field k of_string doc] is {!string_field} [k] decoded by
    [of_string]; a string it does not know is [Error "unknown k \"s\""]. *)
