(** Plain-text instance files.

    A simple line-oriented format so instances can be stored, shared and
    fed to the [tvnep_solve] CLI.  Grammar (one directive per line, [#]
    comments and blank lines ignored):

    {v
    tvnep 1
    horizon 24.0
    substrate-nodes 9
    node-cap 0 3.5            # node id, capacity
    link 0 1 5.0              # src dst capacity (directed, ids in order)
    request R0 duration 2.5 window 1.0 8.0
      vnode 0 1.5 host 4      # virtual node id, demand [, fixed host]
      vlink 1 0 1.2           # src dst demand
    end
    v}

    Either every virtual node carries a [host] or none does (fixed node
    mappings are all-or-nothing per instance, as in {!Instance.t}).
    Every number must be finite ([nan] and [inf] are rejected), and
    [substrate-nodes] is at most 100 000, so a hostile count is a parse
    error rather than an allocation failure. *)

exception Parse_error of int * string
(** Line number and message. *)

val to_string : Instance.t -> string

val of_string : string -> Instance.t
(** @raise Parse_error on malformed input, a non-finite number or an
    out-of-range [substrate-nodes] count, with the directive's line. *)

val save : string -> Instance.t -> unit
(** [save path inst].  @raise Sys_error on I/O failure. *)

val load : string -> Instance.t
(** @raise Parse_error / [Sys_error]. *)
