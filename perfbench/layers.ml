(* Per-layer counts of a traced pass, read from what the program already
   exposes: the outcome's counters, the service summary, and the span
   tree of the recorder each operation was given through the public
   [~prof] option. *)

open Tvnep
module Span = Runtime.Span

let trees (ops : Workloads.op list) =
  List.concat_map
    (fun (op : Workloads.op) ->
      match op.prof with
      | Some r -> Span.tree_of (Span.spans r)
      | None -> [])
    ops

(* Fold over every node of the aggregated phase trees, with the name of
   the node's parent ("" for a root). *)
let fold_trees f trees =
  let rec go parent acc (t : Span.tree) =
    List.fold_left (go t.tree_name) (f acc ~parent t) t.children
  in
  List.fold_left (go "") 0 trees

let self_ticks trees name =
  fold_trees
    (fun acc ~parent:_ (t : Span.tree) ->
      if t.tree_name = name then acc + t.self else acc)
    trees

let calls trees name =
  fold_trees
    (fun acc ~parent:_ (t : Span.tree) ->
      if t.tree_name = name then acc + t.calls else acc)
    trees

let ticks_under trees ~parent:p name =
  fold_trees
    (fun acc ~parent (t : Span.tree) ->
      if t.tree_name = name && parent = p then acc + t.total else acc)
    trees

let merged_stats (ops : Workloads.op list) =
  let into = Runtime.Stats.create () in
  List.iter
    (fun (op : Workloads.op) ->
      match op.result with
      | Workloads.Solved (_, o) -> Runtime.Stats.merge ~into o.Solver.stats
      | Workloads.Served (_, s, _) -> Runtime.Stats.merge ~into s.Service.Engine.stats
      | Workloads.Raised _ -> ())
    ops;
  into

let summaries (ops : Workloads.op list) =
  List.filter_map
    (fun (op : Workloads.op) ->
      match op.result with Workloads.Served (_, s, _) -> Some s | _ -> None)
    ops

(* (name, value) pairs for every counter-derived per-layer metric. *)
let metrics ops =
  let trees = trees ops in
  let st = merged_stats ops in
  let f = float_of_int in
  let sum g = List.fold_left (fun acc s -> acc + g s) 0 (summaries ops) in
  let open Service.Engine in
  let arrivals = st.Runtime.Stats.service_requests in
  (* Per-arrival tick percentiles over every stream of the pass. *)
  let arrival_ticks =
    List.concat_map
      (fun s ->
        List.filter_map
          (fun r ->
            if r.event = Service.Event.Arrival then Some (f r.ticks) else None)
          (Array.to_list s.records))
      (summaries ops)
  in
  let quantile q =
    if arrival_ticks = [] then 0.0 else Statsutil.Stats.quantile q arrival_ticks
  in
  [
    ("lp.simplex_iterations", f st.simplex_iterations);
    ("lp.refactorizations", f st.refactorizations);
    ("lp.basis_updates", f st.basis_updates);
    ("lp.pricing_sweeps", f st.pricing_sweeps);
    ("lp.ticks.factorize", f (self_ticks trees "factorize"));
    ("lp.ticks.ftran", f (self_ticks trees "ftran"));
    ("lp.ticks.btran", f (self_ticks trees "btran"));
    ("lp.ticks.pricing", f (self_ticks trees "pricing"));
    ("lp.ticks.self", f (self_ticks trees "lp"));
    ("mip.rounds", f (calls trees "select"));
    ("tvnep.rounding_attempts", f st.rounding_attempts);
    ("tvnep.rounding_repairs", f st.rounding_repairs);
    ("tvnep.rounding_fallbacks", f st.rounding_fallbacks);
    ("service.evaluations", f (calls trees "arrival"));
    ( "service.reeval_share",
      if arrivals = 0 then 0.0 else f st.service_reevals /. f arrivals );
    ("service.rung.exact", f (sum (fun s -> s.admitted_exact + s.denied_exact)));
    ( "service.rung.rounded",
      f (sum (fun s -> s.admitted_rounded + s.denied_rounded)) );
    ( "service.rung.greedy",
      f (sum (fun s -> s.admitted_greedy + s.denied_greedy)) );
    ("service.rung.budget", f (sum (fun s -> s.denied_budget)));
    ("service.ticks.exact", f (ticks_under trees ~parent:"arrival" "exact"));
    ("service.ticks.rounded", f (ticks_under trees ~parent:"arrival" "rounded"));
    ("service.ticks.greedy", f (ticks_under trees ~parent:"arrival" "greedy"));
    ("service.ticks_p50", quantile 0.5);
    ("service.ticks_p99", quantile 0.99);
    ("service.departed", f (sum (fun s -> s.departed)));
  ]
