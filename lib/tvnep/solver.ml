type model_kind = Delta | Sigma | Csigma

let model_kind_to_string = function
  | Delta -> "delta"
  | Sigma -> "sigma"
  | Csigma -> "csigma"

type method_ = Exact | Greedy | Lp_only | Rounded

let method_to_string = function
  | Exact -> "exact"
  | Greedy -> "greedy"
  | Lp_only -> "lp_only"
  | Rounded -> "rounded"

let method_of_string = function
  | "exact" -> Some Exact
  | "greedy" -> Some Greedy
  | "lp_only" -> Some Lp_only
  | "rounded" -> Some Rounded
  | _ -> None

type flow_form = Arc | Path

let flow_form_to_string = function Arc -> "arc" | Path -> "path"

type status =
  | Optimal
  | Feasible
  | Infeasible
  | Unbounded
  | Budget_exhausted
  | Failed

let status_to_string = function
  | Optimal -> "optimal"
  | Feasible -> "feasible"
  | Infeasible -> "infeasible"
  | Unbounded -> "unbounded"
  | Budget_exhausted -> "budget_exhausted"
  | Failed -> "failed"

let status_of_string = function
  | "optimal" -> Some Optimal
  | "feasible" -> Some Feasible
  | "infeasible" -> Some Infeasible
  | "unbounded" -> Some Unbounded
  | "budget_exhausted" -> Some Budget_exhausted
  | "failed" -> Some Failed
  | _ -> None

module Budget = Runtime.Budget
module Rng = Workload.Rng
module Rstats = Runtime.Stats
module Span = Runtime.Span

module Options = struct
  type t = {
    method_ : method_;
    kind : model_kind;
    objective : Objective.t;
    use_cuts : bool;
    pairwise_cuts : bool;
    seed_with_greedy : bool;
    pinned : (int * float) list;
    forced : int list;
    flow_form : flow_form;
    colgen : Colgen_model.params;
    rounding : Rounding.params;
    mip : Mip.Branch_bound.params;
    budget : Runtime.Budget.t option;
    prof : Runtime.Span.recorder option;
  }

  let make ?(method_ = Exact) ?(kind = Csigma)
      ?(objective = Objective.Access_control) ?(use_cuts = true)
      ?(pairwise_cuts = true) ?(seed_with_greedy = false)
      ?(pinned = []) ?(forced = [])
      ?(flow_form = Arc)
      ?(colgen = Colgen_model.default_params)
      ?(rounding = Rounding.default_params)
      ?(mip = Mip.Branch_bound.default_params) ?budget ?prof () =
    Rounding.check_params rounding;
    {
      method_;
      kind;
      objective;
      use_cuts;
      pairwise_cuts;
      seed_with_greedy;
      pinned;
      forced;
      flow_form;
      colgen;
      rounding;
      mip;
      budget;
      prof;
    }

  let default = make ()
  let with_budget budget o = { o with budget }
end

type colgen_stats = {
  columns_generated : int;
  pricing_rounds : int;
  master_flow_columns : int;
  arc_flow_columns : int;
  colgen_converged : bool;
}

type outcome = {
  status : status;
  method_used : method_;
  mip_status : Mip.Branch_bound.status option;
  solution : Solution.t option;
  objective : float option;
  bound : float;
  gap : float;
  runtime : float;
  ticks : int;
  nodes : int;
  lp_iterations : int;
  model_vars : int;
  model_rows : int;
  colgen : colgen_stats option;
  stats : Runtime.Stats.t;
}

(* One budget per solve: either the caller's, or a private one derived
   from the MIP parameters.  Everything below — model build, greedy
   seeding, branch-and-bound including its node LPs — runs against this
   single clock, so [outcome.runtime] covers the whole solve. *)
let budget_of_options (o : Options.t) =
  match o.Options.budget with
  | Some b -> b
  | None ->
    Budget.create
      ~time_limit:o.Options.mip.Mip.Branch_bound.time_limit
      ~node_limit:o.Options.mip.Mip.Branch_bound.node_limit ()

let validate_pinned inst pinned =
  let k = Instance.num_requests inst in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (req, start) ->
      if req < 0 || req >= k then
        invalid_arg "Solver.run: pinned request out of range";
      if Hashtbl.mem seen req then
        invalid_arg "Solver.run: request pinned twice";
      Hashtbl.replace seen req ();
      let r = Instance.request inst req in
      if
        start < r.Request.start_min -. 1e-9
        || start +. r.Request.duration > r.Request.end_max +. 1e-9
      then
        invalid_arg
          (Printf.sprintf "Solver.run: pin of %s outside its window"
             r.Request.name))
    pinned

(* Forced requests fix acceptance ([x_R = 1]) while leaving the start
   time a decision variable — the pinned-start relaxation used by the
   service's reconfiguration rung.  A request cannot be both forced and
   pinned: the pin already implies acceptance. *)
let validate_forced inst pinned forced =
  let k = Instance.num_requests inst in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun req ->
      if req < 0 || req >= k then
        invalid_arg "Solver.run: forced request out of range";
      if Hashtbl.mem seen req then
        invalid_arg "Solver.run: request forced twice";
      Hashtbl.replace seen req ();
      if List.mem_assoc req pinned then
        invalid_arg "Solver.run: request both pinned and forced")
    forced

let build ?budget inst (o : Options.t) =
  let fm =
    match o.Options.kind with
    | Delta -> Delta_model.build inst
    | Sigma -> Sigma_model.build inst
    | Csigma ->
      Csigma_model.build
        ~options:
          {
            Csigma_model.use_cuts = o.Options.use_cuts;
            pairwise_cuts = o.Options.pairwise_cuts;
            relax_integrality = false;
          }
        ?prof:o.Options.prof ?budget inst
  in
  let extras = Objective.apply fm o.Options.objective in
  (* Pinned requests: accepted, at exactly the given start.  The duration
     equality rows tie the end variable, and the event-mapping binaries
     are free to realize any ordering consistent with the fixed time. *)
  List.iter
    (fun (req, start) ->
      Lp.Model.fix_var fm.Formulation.model
        fm.Formulation.embeddings.(req).Embedding.x_r 1.0;
      Lp.Model.fix_var fm.Formulation.model fm.Formulation.t_start.(req) start)
    o.Options.pinned;
  List.iter
    (fun req ->
      Lp.Model.fix_var fm.Formulation.model
        fm.Formulation.embeddings.(req).Embedding.x_r 1.0)
    o.Options.forced;
  (fm, extras)

(* An outcome for a solve that never started: the caller's budget was
   already exhausted when [run] was entered.  The fallback chain of the
   admission service depends on getting this clean status instead of a
   partial solve against a dead clock. *)
let exhausted_outcome ~method_used stats =
  {
    status = Budget_exhausted;
    method_used;
    mip_status = None;
    solution = None;
    objective = None;
    bound = nan;
    gap = infinity;
    runtime = 0.0;
    ticks = 0;
    nodes = 0;
    lp_iterations = 0;
    model_vars = 0;
    model_rows = 0;
    colgen = None;
    stats;
  }

let status_of_mip mip_status ~has_incumbent =
  match (mip_status : Mip.Branch_bound.status) with
  | Mip.Branch_bound.Optimal -> Optimal
  | Mip.Branch_bound.Infeasible -> Infeasible
  | Mip.Branch_bound.Unbounded -> Unbounded
  | Mip.Branch_bound.Time_limit | Mip.Branch_bound.Node_limit ->
    if has_incumbent then Feasible else Budget_exhausted
  | Mip.Branch_bound.Numerical_failure -> Failed

let run_exact inst (o : Options.t) ~budget ~stats ~ticks0 ~t0 =
  let prof = o.Options.prof in
  let fm, _extras =
    Span.with_ prof budget "build" @@ fun () -> build ~budget inst o
  in
  let build_time = Budget.elapsed budget -. t0 in
  stats.Rstats.build_time <- stats.Rstats.build_time +. build_time;
  let model = fm.Formulation.model in
  (* Optional greedy seeding (the combination the paper's conclusion
     proposes): lift the heuristic solution into this model's variables as
     the initial incumbent.  Only meaningful under access control; the MIP
     layer re-verifies the point before trusting it.  The heuristic runs
     on the shared budget, so its time counts against the deadline and
     shows up in both [outcome.runtime] and [stats.greedy_time]. *)
  let initial =
    if
      o.Options.seed_with_greedy
      && o.Options.objective = Objective.Access_control
      && Instance.has_fixed_mappings inst
    then begin
      Span.with_ prof budget "greedy" @@ fun () ->
      match Greedy.run ~budget ~stats ?prof ~preplaced:o.Options.pinned inst with
      | greedy_sol, _ -> Some (fm.Formulation.lift greedy_sol)
      | exception Invalid_argument _ ->
        (* e.g. pinned set jointly infeasible for the heuristic — the MIP
           will discover infeasibility itself. *)
        None
    end
    else None
  in
  let result =
    Span.with_ prof budget "search" @@ fun () ->
    Mip.Branch_bound.solve ~params:o.Options.mip ?initial ~budget ~stats
      ?prof model
  in
  stats.Rstats.search_time <-
    stats.Rstats.search_time +. result.Mip.Branch_bound.solve_time;
  let solution =
    match result.Mip.Branch_bound.incumbent with
    | None -> None
    | Some x ->
      let value_of id = x.(id) in
      let objective =
        match result.Mip.Branch_bound.objective with Some o -> o | None -> nan
      in
      Some (Formulation.extract_solution fm ~objective value_of)
  in
  {
    status =
      status_of_mip result.Mip.Branch_bound.status
        ~has_incumbent:(solution <> None);
    method_used = Exact;
    mip_status = Some result.Mip.Branch_bound.status;
    solution;
    objective = result.Mip.Branch_bound.objective;
    bound = result.Mip.Branch_bound.best_bound;
    gap = result.Mip.Branch_bound.gap;
    (* One-clock accounting: the elapsed delta on the shared budget covers
       build + greedy seeding + search, not just the B&B loop. *)
    runtime = Budget.elapsed budget -. t0;
    ticks = Budget.ticks budget - ticks0;
    nodes = result.Mip.Branch_bound.nodes;
    lp_iterations = result.Mip.Branch_bound.lp_iterations;
    model_vars = Lp.Model.num_vars model;
    model_rows = Lp.Model.num_constrs model;
    colgen = None;
    stats;
  }

let run_lp_only inst (o : Options.t) ~budget ~stats ~ticks0 ~t0 =
  let prof = o.Options.prof in
  let fm, _extras =
    Span.with_ prof budget "build" @@ fun () -> build ~budget inst o
  in
  let build_time = Budget.elapsed budget -. t0 in
  stats.Rstats.build_time <- stats.Rstats.build_time +. build_time;
  let result =
    Lp.Simplex.solve_model ~budget ~stats ?prof
      fm.Formulation.model
  in
  let status, objective =
    match result.Lp.Simplex.status with
    | Lp.Simplex.Optimal -> (Optimal, Some result.Lp.Simplex.objective)
    | Lp.Simplex.Infeasible -> (Infeasible, None)
    | Lp.Simplex.Unbounded -> (Unbounded, None)
    | Lp.Simplex.Iter_limit | Lp.Simplex.Time_limit -> (Budget_exhausted, None)
    | Lp.Simplex.Numerical_failure -> (Failed, None)
  in
  {
    status;
    method_used = Lp_only;
    mip_status = None;
    solution = None;
    objective;
    bound =
      (match objective with Some v -> v | None -> nan);
    gap = (match status with Optimal -> 0.0 | _ -> infinity);
    runtime = Budget.elapsed budget -. t0;
    ticks = Budget.ticks budget - ticks0;
    nodes = 0;
    lp_iterations = result.Lp.Simplex.iterations;
    model_vars = Lp.Model.num_vars fm.Formulation.model;
    model_rows = Lp.Model.num_constrs fm.Formulation.model;
    colgen = None;
    stats;
  }

let run_greedy inst (o : Options.t) ~budget ~stats ~ticks0 ~t0 =
  if not (Instance.has_fixed_mappings inst) then
    invalid_arg "Solver.run: Greedy requires fixed node mappings";
  if o.Options.forced <> [] then
    invalid_arg "Solver.run: forced requests are not supported with Greedy";
  let prof = o.Options.prof in
  let solution, _ =
    Span.with_ prof budget "greedy" @@ fun () ->
    Greedy.run ~budget ~stats ?prof ~preplaced:o.Options.pinned
      inst
  in
  {
    (* The heuristic proves no bound; [Feasible] unless the clock died
       mid-scan (a partial scan may have skipped admissible requests). *)
    status =
      (if Budget.remaining budget <= 0.0 then Budget_exhausted else Feasible);
    method_used = Greedy;
    mip_status = None;
    solution = Some solution;
    objective = Some solution.Solution.objective;
    bound = nan;
    gap = infinity;
    runtime = Budget.elapsed budget -. t0;
    ticks = Budget.ticks budget - ticks0;
    nodes = 0;
    lp_iterations = stats.Rstats.simplex_iterations;
    model_vars = 0;
    model_rows = 0;
    colgen = None;
    stats;
  }

(* --- path-form (column generation) dispatch ------------------------- *)

let colgen_stats_of cg ~converged =
  Some
    {
      columns_generated = Colgen_model.columns_generated cg;
      pricing_rounds = Colgen_model.pricing_rounds cg;
      master_flow_columns = Colgen_model.flow_columns cg;
      arc_flow_columns = Colgen_model.arc_flow_columns cg;
      colgen_converged = converged;
    }

(* Path-form counterpart of [build]: the restricted master replaces the
   arc-flow embeddings, everything downstream (objective, pins) is
   applied the same way.  Rows recorded for pricing keep their indices —
   objective/pin edits only append rows or touch bounds. *)
let build_path ?budget inst (o : Options.t) =
  if o.Options.kind <> Csigma then
    invalid_arg "Solver.run: flow_form Path requires the csigma model";
  let cg =
    Colgen_model.build
      ~options:
        {
          Csigma_model.use_cuts = o.Options.use_cuts;
          pairwise_cuts = o.Options.pairwise_cuts;
          relax_integrality = false;
        }
      ~params:o.Options.colgen ?prof:o.Options.prof ?budget inst
  in
  let fm = Colgen_model.formulation cg in
  let extras = Objective.apply fm o.Options.objective in
  List.iter
    (fun (req, start) ->
      Lp.Model.fix_var fm.Formulation.model
        fm.Formulation.embeddings.(req).Embedding.x_r 1.0;
      Lp.Model.fix_var fm.Formulation.model fm.Formulation.t_start.(req) start)
    o.Options.pinned;
  List.iter
    (fun req ->
      Lp.Model.fix_var fm.Formulation.model
        fm.Formulation.embeddings.(req).Embedding.x_r 1.0)
    o.Options.forced;
  (cg, extras)

let colgen_build_phase inst (o : Options.t) ~budget ~stats ~t0 =
  let prof = o.Options.prof in
  let cg, _extras =
    Span.with_ prof budget "build" @@ fun () -> build_path ~budget inst o
  in
  let build_time = Budget.elapsed budget -. t0 in
  stats.Rstats.build_time <- stats.Rstats.build_time +. build_time;
  cg

let colgen_generate_phase cg (o : Options.t) ~budget ~stats ?fixed () =
  let prof = o.Options.prof in
  Span.with_ prof budget "colgen" @@ fun () ->
  Colgen_model.generate ~jobs:o.Options.mip.Mip.Branch_bound.jobs
    ~lp_params:o.Options.mip.Mip.Branch_bound.lp_params ~stats ?prof ?fixed
    ~budget cg

(* Exact solve over the path master: root column generation on the LP
   relaxation, then branch-and-bound on the enlarged standard form —
   every node inherits the root's columns.  With [colgen.price_at_nodes]
   a branch-and-price-lite second pass re-prices against the
   incumbent-fixed master LP and re-runs the search once when new
   columns enter (seeded with the previous incumbent, zero-extended on
   the new columns — still feasible).  Note the proved bound is for the
   MIP over the generated columns; at the root LP it coincides with the
   full arc-form bound once generation converged. *)
let run_exact_path inst (o : Options.t) ~budget ~stats ~ticks0 ~t0 =
  let prof = o.Options.prof in
  let cg = colgen_build_phase inst o ~budget ~stats ~t0 in
  let root = colgen_generate_phase cg o ~budget ~stats () in
  let converged = ref root.Colgen_model.converged in
  let search sf initial =
    let result =
      Span.with_ prof budget "search" @@ fun () ->
      Mip.Branch_bound.solve_form ~params:o.Options.mip ?initial ~budget
        ~stats ?prof sf
    in
    stats.Rstats.search_time <-
      stats.Rstats.search_time +. result.Mip.Branch_bound.solve_time;
    result
  in
  let result = search root.Colgen_model.sf None in
  let result =
    match result.Mip.Branch_bound.incumbent with
    | Some x
      when o.Options.colgen.Colgen_model.price_at_nodes
           && Budget.remaining budget > 0.0 ->
      let re = colgen_generate_phase cg o ~budget ~stats ~fixed:x () in
      converged := !converged && re.Colgen_model.converged;
      if re.Colgen_model.generated = 0 then result
      else begin
        let pad =
          re.Colgen_model.sf.Lp.Std_form.n_struct - Array.length x
        in
        search re.Colgen_model.sf (Some (Array.append x (Array.make pad 0.0)))
      end
    | _ -> result
  in
  let sf = Colgen_model.std_form cg in
  let solution =
    match result.Mip.Branch_bound.incumbent with
    | None -> None
    | Some x ->
      let value_of id = x.(id) in
      let objective =
        match result.Mip.Branch_bound.objective with Some o -> o | None -> nan
      in
      Some (Colgen_model.extract_solution cg ~objective value_of)
  in
  {
    status =
      status_of_mip result.Mip.Branch_bound.status
        ~has_incumbent:(solution <> None);
    method_used = Exact;
    mip_status = Some result.Mip.Branch_bound.status;
    solution;
    objective = result.Mip.Branch_bound.objective;
    bound = result.Mip.Branch_bound.best_bound;
    gap = result.Mip.Branch_bound.gap;
    runtime = Budget.elapsed budget -. t0;
    ticks = Budget.ticks budget - ticks0;
    nodes = result.Mip.Branch_bound.nodes;
    lp_iterations = result.Mip.Branch_bound.lp_iterations;
    (* The enlarged form, not the seed model: generated columns count. *)
    model_vars = sf.Lp.Std_form.n_struct;
    model_rows = sf.Lp.Std_form.n_rows;
    colgen = colgen_stats_of cg ~converged:!converged;
    stats;
  }

(* Root LP of the path master.  [Optimal] only when generation converged
   (no column prices in) — that is when the value equals the full LP
   relaxation; a round-cap/tailing-off exit yields the restricted
   master's optimum, reported as [Feasible]. *)
let run_lp_path inst (o : Options.t) ~budget ~stats ~ticks0 ~t0 =
  let cg = colgen_build_phase inst o ~budget ~stats ~t0 in
  let root = colgen_generate_phase cg o ~budget ~stats () in
  let result = root.Colgen_model.lp in
  let status, objective =
    match result.Lp.Simplex.status with
    | Lp.Simplex.Optimal ->
      ( (if root.Colgen_model.converged then Optimal else Feasible),
        Some result.Lp.Simplex.objective )
    | Lp.Simplex.Infeasible -> (Infeasible, None)
    | Lp.Simplex.Unbounded -> (Unbounded, None)
    | Lp.Simplex.Iter_limit | Lp.Simplex.Time_limit -> (Budget_exhausted, None)
    | Lp.Simplex.Numerical_failure -> (Failed, None)
  in
  {
    status;
    method_used = Lp_only;
    mip_status = None;
    solution = None;
    objective;
    bound = (match objective with Some v -> v | None -> nan);
    gap = (match status with Optimal -> 0.0 | _ -> infinity);
    runtime = Budget.elapsed budget -. t0;
    ticks = Budget.ticks budget - ticks0;
    nodes = 0;
    lp_iterations = stats.Rstats.simplex_iterations;
    model_vars = root.Colgen_model.sf.Lp.Std_form.n_struct;
    model_rows = root.Colgen_model.sf.Lp.Std_form.n_rows;
    colgen = colgen_stats_of cg ~converged:root.Colgen_model.converged;
    stats;
  }

(* --- randomized rounding (Rost–Schmid approximation line) ----------- *)

(* Solve the cΣ LP relaxation (arc form, or the path-form restricted
   master when [flow_form = Path]), decompose the fractional point into a
   convex combination of integral (accept, start) candidates per request
   ({!Rounding.decompose}), and round with bounded validator-checked
   repair: each draw is realized by the greedy with the drawn starts
   pre-placed (the greedy's feasibility LPs are the validity check — an
   infeasible draw raises and is re-drawn).  On repair exhaustion, or an
   LP that produced no usable fractional point, the solve falls through
   to plain greedy so the caller always gets the heuristic's quality as
   a floor.  The LP optimum is a valid dual bound for the MIP (arc form,
   or a converged path master), so the outcome reports a genuine gap —
   unlike [Greedy], which proves nothing. *)
let run_rounded inst (o : Options.t) ~budget ~stats ~ticks0 ~t0 =
  if not (Instance.has_fixed_mappings inst) then
    invalid_arg "Solver.run: Rounded requires fixed node mappings";
  if o.Options.forced <> [] then
    invalid_arg "Solver.run: forced requests are not supported with Rounded";
  let prof = o.Options.prof in
  let params = o.Options.rounding in
  (* Phase 1: the LP relaxation.  The model is built with integrality
     marks (warm-path sharing with the exact solve), which the simplex
     ignores — exactly how [Lp_only] obtains the relaxation. *)
  let fm, lp_status, lp_objective, value, lp_bound_valid, colgen, model_vars,
      model_rows =
    Span.with_ prof budget "lp_relax" @@ fun () ->
    match o.Options.flow_form with
    | Arc ->
      let fm, _extras = build ~budget inst o in
      let result =
        Lp.Simplex.solve_model ~budget ~stats ?prof
          fm.Formulation.model
      in
      ( fm,
        result.Lp.Simplex.status,
        result.Lp.Simplex.objective,
        (fun id -> result.Lp.Simplex.x.(id)),
        true,
        None,
        Lp.Model.num_vars fm.Formulation.model,
        Lp.Model.num_constrs fm.Formulation.model )
    | Path ->
      let cg, _extras = build_path ~budget inst o in
      let root =
        Colgen_model.generate ~jobs:o.Options.mip.Mip.Branch_bound.jobs
          ~lp_params:o.Options.mip.Mip.Branch_bound.lp_params ~stats ?prof
          ~budget cg
      in
      let result = root.Colgen_model.lp in
      ( Colgen_model.formulation cg,
        result.Lp.Simplex.status,
        result.Lp.Simplex.objective,
        (fun id -> result.Lp.Simplex.x.(id)),
        (* An unconverged restricted master under-estimates the full LP:
           not a valid dual bound for the MIP. *)
        root.Colgen_model.converged,
        colgen_stats_of cg ~converged:root.Colgen_model.converged,
        root.Colgen_model.sf.Lp.Std_form.n_struct,
        root.Colgen_model.sf.Lp.Std_form.n_rows )
  in
  let finish ~status ~bound solution =
    {
      status;
      method_used = Rounded;
      mip_status = None;
      solution;
      objective =
        (match solution with
        | Some s -> Some s.Solution.objective
        | None -> None);
      bound;
      gap =
        (match solution with
        | Some s when Float.is_finite bound ->
          let diff = Float.abs (bound -. s.Solution.objective) in
          if diff <= 1e-12 then 0.0
          else diff /. Float.max 1e-10 (Float.abs s.Solution.objective)
        | _ -> infinity);
      runtime = Budget.elapsed budget -. t0;
      ticks = Budget.ticks budget - ticks0;
      nodes = 0;
      lp_iterations = stats.Rstats.simplex_iterations;
      model_vars;
      model_rows;
      colgen;
      stats;
    }
  in
  let feasible_status () =
    if Budget.remaining budget <= 0.0 then Budget_exhausted else Feasible
  in
  (* Plain greedy, no rounding guidance: the exhaustion fall-through. *)
  let greedy_fallback ~bound () =
    stats.Rstats.rounding_fallbacks <- stats.Rstats.rounding_fallbacks + 1;
    match
      Span.with_ prof budget "greedy" @@ fun () ->
      Greedy.run ~budget ~stats ?prof ~preplaced:o.Options.pinned
        inst
    with
    | solution, _gstats -> finish ~status:(feasible_status ()) ~bound (Some solution)
    | exception Invalid_argument _ ->
      (* Pinned set jointly infeasible for the heuristic (possible when
         the clock died under its feasibility LPs). *)
      finish
        ~status:
          (if Budget.remaining budget <= 0.0 then Budget_exhausted else Failed)
        ~bound None
  in
  match lp_status with
  | Lp.Simplex.Infeasible ->
    (* The relaxation is infeasible, hence so is the MIP: a proven
       denial, reported as such so the service chain can stop here. *)
    finish ~status:Infeasible ~bound:nan None
  | Lp.Simplex.Unbounded -> finish ~status:Unbounded ~bound:nan None
  | Lp.Simplex.Iter_limit | Lp.Simplex.Time_limit
  | Lp.Simplex.Numerical_failure ->
    (* No usable fractional point; degrade to the heuristic on whatever
       remains of the clock. *)
    if Budget.remaining budget <= 0.0 then
      finish ~status:Budget_exhausted ~bound:nan None
    else greedy_fallback ~bound:nan ()
  | Lp.Simplex.Optimal ->
    let bound = if lp_bound_valid then lp_objective else nan in
    (* Phase 2: read the convex combination off the fractional point. *)
    let decomp =
      Span.with_ prof budget "decompose" @@ fun () ->
      let skip r = List.mem_assoc r o.Options.pinned in
      Rounding.decompose ~eps:params.Rounding.eps ~skip inst fm ~value
    in
    stats.Rstats.rounding_candidates <-
      stats.Rstats.rounding_candidates + Rounding.num_candidates decomp;
    (* Phases 3 and 4: draw and realize, then bounded repair.  The
       realization is the greedy with the drawn starts pre-placed: its
       feasibility LPs are the validity check, and the remaining
       requests are completed greedily (they can only add revenue). *)
    let rng = Rng.create params.Rounding.seed in
    let realize chosen =
      if Budget.remaining budget <= 0.0 then None
      else
        match
          Greedy.run ~budget ~stats ?prof
            ~preplaced:(o.Options.pinned @ chosen) inst
        with
        | solution, _gstats -> Some solution
        | exception Invalid_argument _ -> None
    in
    let first =
      Span.with_ prof budget "round" @@ fun () ->
      Rounding.round ~rng ~max_repairs:0 ~stats decomp ~realize
    in
    let rounded =
      match first with
      | Some _ -> first
      | None ->
        if params.Rounding.max_repairs = 0 then None
        else begin
          (* The first retry is a repair too; [Rounding.round] only
             counts the retries between its own attempts. *)
          stats.Rstats.rounding_repairs <- stats.Rstats.rounding_repairs + 1;
          Span.with_ prof budget "repair" @@ fun () ->
          Rounding.round ~rng
            ~max_repairs:(params.Rounding.max_repairs - 1)
            ~stats decomp ~realize
        end
    in
    (match rounded with
    | Some solution -> finish ~status:(feasible_status ()) ~bound (Some solution)
    | None ->
      if Budget.remaining budget <= 0.0 then
        finish ~status:Budget_exhausted ~bound None
      else greedy_fallback ~bound ())

let run inst (o : Options.t) =
  validate_pinned inst o.Options.pinned;
  validate_forced inst o.Options.pinned o.Options.forced;
  let budget = budget_of_options o in
  let stats = Rstats.create () in
  let ticks0 = Budget.ticks budget in
  let t0 = Budget.elapsed budget in
  (* A dead budget cannot pay for a model build, let alone a search:
     return the clean exhaustion outcome the fallback chain expects. *)
  if Budget.remaining budget <= 0.0 then
    exhausted_outcome ~method_used:o.Options.method_ stats
  else
    (* The root span opens at the same point [ticks0] was read, so its
       width is exactly [outcome.ticks] — which makes the phase tree's
       self-tick total equal the solve's total work ticks. *)
    Span.with_ o.Options.prof budget "solve" @@ fun () ->
    match (o.Options.method_, o.Options.flow_form) with
    | Exact, Arc -> run_exact inst o ~budget ~stats ~ticks0 ~t0
    | Exact, Path -> run_exact_path inst o ~budget ~stats ~ticks0 ~t0
    | Lp_only, Arc -> run_lp_only inst o ~budget ~stats ~ticks0 ~t0
    | Lp_only, Path -> run_lp_path inst o ~budget ~stats ~ticks0 ~t0
    | Greedy, _ -> run_greedy inst o ~budget ~stats ~ticks0 ~t0
    | Rounded, _ -> run_rounded inst o ~budget ~stats ~ticks0 ~t0

(* ------------------------------------------------------------------ *)
(* Versioned JSON encoding                                            *)
(* ------------------------------------------------------------------ *)

module Json = Statsutil.Json

let schema_version = 1

open Json.Syntax

let assignment_to_json (a : Solution.assignment) =
  Json.Obj
    [
      ("accepted", Json.Bool a.Solution.accepted);
      ( "node_map",
        Json.List
          (Array.to_list
             (Array.map (fun v -> Json.Num (float_of_int v)) a.Solution.node_map))
      );
      ( "link_flows",
        Json.List
          (Array.to_list
             (Array.map
                (fun flows ->
                  Json.List
                    (List.map
                       (fun (edge, flow) ->
                         Json.List
                           [ Json.Num (float_of_int edge); Json.of_float flow ])
                       flows))
                a.Solution.link_flows)) );
      ("t_start", Json.of_float a.Solution.t_start);
      ("t_end", Json.of_float a.Solution.t_end);
    ]

let assignment_of_json doc =
  let* accepted = Json.bool_field "accepted" doc in
  let* node_map =
    match Option.bind (Json.member "node_map" doc) Json.to_list with
    | Some l ->
      let* ids =
        List.fold_right
          (fun v acc ->
            let* acc = acc in
            let* n = Json.decode_int v in
            Ok (n :: acc))
          l (Ok [])
      in
      Ok (Array.of_list ids)
    | None -> Error "assignment: missing \"node_map\""
  in
  let* link_flows =
    match
      Option.bind (Json.member "link_flows" doc) Json.to_list
    with
    | Some l ->
      let* flows =
        List.fold_right
          (fun per_link acc ->
            let* acc = acc in
            match Json.to_list per_link with
            | None -> Error "assignment: link flow list expected"
            | Some pairs ->
              let* pairs =
                List.fold_right
                  (fun p acc ->
                    let* acc = acc in
                    match Json.to_list p with
                    | Some [ e; f ] ->
                      let* e = Json.decode_int e in
                      let* f = Json.decode_float f in
                      Ok ((e, f) :: acc)
                    | _ -> Error "assignment: flow pair expected")
                  pairs (Ok [])
              in
              Ok (pairs :: acc))
          l (Ok [])
      in
      Ok (Array.of_list flows)
    | None -> Error "assignment: missing \"link_flows\""
  in
  let* t_start = Json.float_field "t_start" doc in
  let* t_end = Json.float_field "t_end" doc in
  Ok { Solution.accepted; node_map; link_flows; t_start; t_end }

let solution_to_json (sol : Solution.t) =
  Json.Obj
    [
      ("objective", Json.of_float sol.Solution.objective);
      ( "assignments",
        Json.List
          (Array.to_list (Array.map assignment_to_json sol.Solution.assignments))
      );
    ]

let solution_of_json doc =
  let* objective = Json.float_field "objective" doc in
  match
    Option.bind (Json.member "assignments" doc) Json.to_list
  with
  | None -> Error "solution: missing \"assignments\""
  | Some l ->
    let* assignments =
      List.fold_right
        (fun a acc ->
          let* acc = acc in
          let* a = assignment_of_json a in
          Ok (a :: acc))
        l (Ok [])
    in
    Ok { Solution.assignments = Array.of_list assignments; objective }

let mip_status_of_string = function
  | "optimal" -> Some Mip.Branch_bound.Optimal
  | "infeasible" -> Some Mip.Branch_bound.Infeasible
  | "unbounded" -> Some Mip.Branch_bound.Unbounded
  | "time limit" -> Some Mip.Branch_bound.Time_limit
  | "node limit" -> Some Mip.Branch_bound.Node_limit
  | "numerical failure" -> Some Mip.Branch_bound.Numerical_failure
  | _ -> None

let outcome_to_json o =
  Json.Obj
    [
      ("schema", Json.Str "tvnep-outcome/1");
      ("schema_version", Json.Num (float_of_int schema_version));
      ("status", Json.Str (status_to_string o.status));
      ("method", Json.Str (method_to_string o.method_used));
      ( "mip_status",
        match o.mip_status with
        | Some s -> Json.Str (Mip.Branch_bound.status_to_string s)
        | None -> Json.Null );
      ( "objective",
        match o.objective with Some v -> Json.of_float v | None -> Json.Null );
      ("bound", Json.of_float o.bound);
      ("gap", Json.of_float o.gap);
      ("runtime", Json.of_float o.runtime);
      ("ticks", Json.Num (float_of_int o.ticks));
      ("nodes", Json.Num (float_of_int o.nodes));
      ("lp_iterations", Json.Num (float_of_int o.lp_iterations));
      ("model_vars", Json.Num (float_of_int o.model_vars));
      ("model_rows", Json.Num (float_of_int o.model_rows));
      ( "solution",
        match o.solution with
        | Some sol -> solution_to_json sol
        | None -> Json.Null );
      (* Added without a schema bump: decoders treat absence (old
         documents) and [null] (arc-form solves) identically. *)
      ( "colgen",
        match o.colgen with
        | None -> Json.Null
        | Some c ->
          Json.Obj
            [
              ( "columns_generated",
                Json.Num (float_of_int c.columns_generated) );
              ("pricing_rounds", Json.Num (float_of_int c.pricing_rounds));
              ( "master_flow_columns",
                Json.Num (float_of_int c.master_flow_columns) );
              ( "arc_flow_columns",
                Json.Num (float_of_int c.arc_flow_columns) );
              ("converged", Json.Bool c.colgen_converged);
            ] );
      ("stats", Rstats.to_json o.stats);
    ]

let outcome_of_json doc =
  let* version = Json.int_field "schema_version" doc in
  if version <> schema_version then
    Error (Printf.sprintf "unsupported schema_version %d" version)
  else
    let* status = Json.enum_field "status" status_of_string doc in
    let* method_used = Json.enum_field "method" method_of_string doc in
    let* mip_status =
      match Json.member "mip_status" doc with
      | None | Some Json.Null -> Ok None
      | Some _ ->
        Result.map Option.some
          (Json.enum_field "mip_status" mip_status_of_string doc)
    in
    let* objective =
      match Json.member "objective" doc with
      | None | Some Json.Null -> Ok None
      | Some v -> Result.map Option.some (Json.decode_float v)
    in
    let* solution =
      match Json.member "solution" doc with
      | None | Some Json.Null -> Ok None
      | Some v -> Result.map Option.some (solution_of_json v)
    in
    let* colgen =
      match Json.member "colgen" doc with
      (* Absent in pre-colgen documents — same schema version, so both
         forms must decode. *)
      | None | Some Json.Null -> Ok None
      | Some c ->
        let* columns_generated = Json.int_field "columns_generated" c in
        let* pricing_rounds = Json.int_field "pricing_rounds" c in
        let* master_flow_columns = Json.int_field "master_flow_columns" c in
        let* arc_flow_columns = Json.int_field "arc_flow_columns" c in
        let* colgen_converged = Json.bool_field "converged" c in
        Ok
          (Some
             {
               columns_generated;
               pricing_rounds;
               master_flow_columns;
               arc_flow_columns;
               colgen_converged;
             })
    in
    let* stats =
      match Json.member "stats" doc with
      | None -> Ok (Rstats.create ())
      | Some v -> Rstats.of_json v
    in
    let* bound = Json.float_field "bound" doc in
    let* gap = Json.float_field "gap" doc in
    let* runtime = Json.float_field "runtime" doc in
    let* ticks = Json.int_field "ticks" doc in
    let* nodes = Json.int_field "nodes" doc in
    let* lp_iterations = Json.int_field "lp_iterations" doc in
    let* model_vars = Json.int_field "model_vars" doc in
    let* model_rows = Json.int_field "model_rows" doc in
    Ok
      {
        status;
        method_used;
        mip_status;
        solution;
        objective;
        bound;
        gap;
        runtime;
        ticks;
        nodes;
        lp_iterations;
        model_vars;
        model_rows;
        colgen;
        stats;
      }
