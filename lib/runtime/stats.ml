module Json = Statsutil.Json

type t = {
  mutable simplex_iterations : int;
  mutable refactorizations : int;
  mutable lp_solves : int;
  mutable ftran_nnz : int;
  mutable btran_nnz : int;
  mutable basis_updates : int;
  mutable spike_fill : int;
  mutable refactor_fill : int;
  mutable refactor_drift : int;
  mutable refactor_forced : int;
  mutable pricing_hits : int;
  mutable pricing_sweeps : int;
  mutable bb_nodes : int;
  mutable incumbents : int;
  mutable bound_updates : int;
  mutable greedy_lp_solves : int;
  mutable greedy_candidates : int;
  mutable greedy_accepted : int;
  mutable greedy_warm_starts : int;
  mutable rounding_attempts : int;
  mutable rounding_candidates : int;
  mutable rounding_repairs : int;
  mutable rounding_fallbacks : int;
  mutable service_requests : int;
  mutable service_admitted : int;
  mutable service_denied : int;
  mutable service_fallbacks : int;
  mutable service_reevals : int;
  mutable greedy_time : float;
  mutable build_time : float;
  mutable search_time : float;
  mutable service_time : float;
}

let create () =
  {
    simplex_iterations = 0;
    refactorizations = 0;
    lp_solves = 0;
    ftran_nnz = 0;
    btran_nnz = 0;
    basis_updates = 0;
    spike_fill = 0;
    refactor_fill = 0;
    refactor_drift = 0;
    refactor_forced = 0;
    pricing_hits = 0;
    pricing_sweeps = 0;
    bb_nodes = 0;
    incumbents = 0;
    bound_updates = 0;
    greedy_lp_solves = 0;
    greedy_candidates = 0;
    greedy_accepted = 0;
    greedy_warm_starts = 0;
    rounding_attempts = 0;
    rounding_candidates = 0;
    rounding_repairs = 0;
    rounding_fallbacks = 0;
    service_requests = 0;
    service_admitted = 0;
    service_denied = 0;
    service_fallbacks = 0;
    service_reevals = 0;
    greedy_time = 0.0;
    build_time = 0.0;
    search_time = 0.0;
    service_time = 0.0;
  }

type field =
  | Count of string * (t -> int) * (t -> int -> unit)
  | Seconds of string * (t -> float) * (t -> float -> unit)

(* One entry per record field, in outcome-JSON member order. *)
let fields =
  [
    Count ("simplex_iterations", (fun s -> s.simplex_iterations),
           fun s v -> s.simplex_iterations <- v);
    Count ("refactorizations", (fun s -> s.refactorizations),
           fun s v -> s.refactorizations <- v);
    Count ("lp_solves", (fun s -> s.lp_solves),
           fun s v -> s.lp_solves <- v);
    Count ("ftran_nnz", (fun s -> s.ftran_nnz),
           fun s v -> s.ftran_nnz <- v);
    Count ("btran_nnz", (fun s -> s.btran_nnz),
           fun s v -> s.btran_nnz <- v);
    Count ("basis_updates", (fun s -> s.basis_updates),
           fun s v -> s.basis_updates <- v);
    Count ("spike_fill", (fun s -> s.spike_fill),
           fun s v -> s.spike_fill <- v);
    Count ("refactor_fill", (fun s -> s.refactor_fill),
           fun s v -> s.refactor_fill <- v);
    Count ("refactor_drift", (fun s -> s.refactor_drift),
           fun s v -> s.refactor_drift <- v);
    Count ("refactor_forced", (fun s -> s.refactor_forced),
           fun s v -> s.refactor_forced <- v);
    Count ("pricing_hits", (fun s -> s.pricing_hits),
           fun s v -> s.pricing_hits <- v);
    Count ("pricing_sweeps", (fun s -> s.pricing_sweeps),
           fun s v -> s.pricing_sweeps <- v);
    Count ("bb_nodes", (fun s -> s.bb_nodes),
           fun s v -> s.bb_nodes <- v);
    Count ("incumbents", (fun s -> s.incumbents),
           fun s v -> s.incumbents <- v);
    Count ("bound_updates", (fun s -> s.bound_updates),
           fun s v -> s.bound_updates <- v);
    Count ("greedy_lp_solves", (fun s -> s.greedy_lp_solves),
           fun s v -> s.greedy_lp_solves <- v);
    Count ("greedy_candidates", (fun s -> s.greedy_candidates),
           fun s v -> s.greedy_candidates <- v);
    Count ("greedy_accepted", (fun s -> s.greedy_accepted),
           fun s v -> s.greedy_accepted <- v);
    Count ("greedy_warm_starts", (fun s -> s.greedy_warm_starts),
           fun s v -> s.greedy_warm_starts <- v);
    Count ("rounding_attempts", (fun s -> s.rounding_attempts),
           fun s v -> s.rounding_attempts <- v);
    Count ("rounding_candidates", (fun s -> s.rounding_candidates),
           fun s v -> s.rounding_candidates <- v);
    Count ("rounding_repairs", (fun s -> s.rounding_repairs),
           fun s v -> s.rounding_repairs <- v);
    Count ("rounding_fallbacks", (fun s -> s.rounding_fallbacks),
           fun s v -> s.rounding_fallbacks <- v);
    Count ("service_requests", (fun s -> s.service_requests),
           fun s v -> s.service_requests <- v);
    Count ("service_admitted", (fun s -> s.service_admitted),
           fun s v -> s.service_admitted <- v);
    Count ("service_denied", (fun s -> s.service_denied),
           fun s v -> s.service_denied <- v);
    Count ("service_fallbacks", (fun s -> s.service_fallbacks),
           fun s v -> s.service_fallbacks <- v);
    Count ("service_reevals", (fun s -> s.service_reevals),
           fun s v -> s.service_reevals <- v);
    Seconds ("greedy_time", (fun s -> s.greedy_time),
             fun s v -> s.greedy_time <- v);
    Seconds ("build_time", (fun s -> s.build_time),
             fun s v -> s.build_time <- v);
    Seconds ("search_time", (fun s -> s.search_time),
             fun s v -> s.search_time <- v);
    Seconds ("service_time", (fun s -> s.service_time),
             fun s v -> s.service_time <- v);
  ]

let merge ~into s =
  List.iter
    (function
      | Count (_, get, set) -> set into (get into + get s)
      | Seconds (_, get, set) -> set into (get into +. get s))
    fields

let to_string s =
  List.filter_map
    (function
      | Count (k, get, _) ->
        let n = get s in
        if n = 0 then None else Some (Printf.sprintf "%s %d" k n)
      | Seconds (k, get, _) ->
        let x = get s in
        if x = 0.0 then None else Some (Printf.sprintf "%s %.3fs" k x))
    fields
  |> String.concat ", "

let to_json s =
  Json.Obj
    (List.map
       (function
         | Count (k, get, _) -> (k, Json.Num (float_of_int (get s)))
         | Seconds (k, get, _) -> (k, Json.of_float (get s)))
       fields)

open Json.Syntax

let of_json doc =
  match doc with
  | Json.Obj _ ->
    (* Tolerant on absent and unknown members (absent entries stay zero),
       strict on malformed ones. *)
    let s = create () in
    let decode k dec set =
      match Json.member k doc with
      | None -> Ok ()
      | Some v ->
        let* x = Result.map_error (fun e -> k ^ ": " ^ e) (dec v) in
        Ok (set s x)
    in
    let rec go = function
      | [] -> Ok s
      | Count (k, _, set) :: rest ->
        let* () = decode k Json.decode_int set in
        go rest
      | Seconds (k, _, set) :: rest ->
        let* () = decode k Json.decode_float set in
        go rest
    in
    go fields
  | _ -> Error "stats: expected an object"
