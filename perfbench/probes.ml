(* Outside-timed layer probes: the wall time of calls into each layer's
   public functions, made by the benchmark on the workload's own form.
   A solve workload is probed on its first instance with its own budget
   and jobs; the served workload on the first eight requests of its first
   stream (about the size of the pinned models its exact rung solves),
   with the exact rung's share of a slice as budget. *)

open Tvnep

let timed = Workloads.timed
let step name = Workloads.step ("probe " ^ name)
let median = Statsutil.Stats.median
let us s = s *. 1e6

let median_time reps f =
  let runs = List.init reps (fun _ -> timed f) in
  (fst (List.hd runs), median (List.map snd runs))

let probe_target (w : Workloads.t) (p : Workloads.prepared) =
  match (w.kind, p.inputs.(0)) with
  | Workloads.Solve s, Workloads.Instance inst -> (inst, s.ticks, s.jobs, s.node_limit)
  | Workloads.Serve s, Workloads.Stream (inst, _) ->
    let k = min 8 (Instance.num_requests inst) in
    let sub =
      Instance.with_requests inst
        (Array.sub inst.Instance.requests 0 k)
        ?node_mappings:
          (Option.map (fun m -> Array.sub m 0 k) inst.Instance.node_mappings)
        ()
    in
    (sub, s.slice *. s.exact_fraction *. Workloads.work_rate, 1, max_int)
  | _ -> invalid_arg "Probes.probe_target: inputs do not match the workload"

(* Median wall per FTRAN/BTRAN of a unit right-hand side against the
   root-optimal basis, over up to 256 evenly spread positions.  Each
   position is solved [inner] times back to back; the cost of resetting
   the right-hand side is measured alone and taken off. *)
let kernels (sf : Lp.Std_form.t) basic =
  let module Slu = Lina.Lu.Sparse in
  let n = sf.n_rows in
  let f, factorize_s =
    median_time 5 (fun () ->
        Slu.factorize ~n ~col:(fun pos g -> Lina.Csc.iter_col sf.a basic.(pos) g))
  in
  let scratch = Slu.scratch n in
  let b = Array.make n 0.0 in
  let inner = 10 and positions = min n 256 in
  let per_solve solve =
    median
      (List.init positions (fun i ->
           let k = i * n / positions in
           let (), s =
             timed (fun () ->
                 for _ = 1 to inner do
                   Array.fill b 0 n 0.0;
                   b.(k) <- 1.0;
                   solve b
                 done)
           in
           us s /. float_of_int inner))
  in
  let reset = per_solve (fun _ -> ()) in
  let ftran = per_solve (fun b -> ignore (Slu.ftran_reach f scratch b)) in
  let btran = per_solve (fun b -> ignore (Slu.btran_reach f scratch b)) in
  (us factorize_s, Float.max 0.0 (ftran -. reset), Float.max 0.0 (btran -. reset))

(* Warm re-solves over a seeded plunge trajectory: fix a few binaries,
   re-solve after each from the previous optimal basis, back off to the
   root bounds and the root basis, repeat (the node-LP pattern of the
   branch-and-bound, where a node warm-starts from its parent's basis).
   Each re-solve may bill up to ten times the cold root solve's ticks, a
   cap meant never to bind; the wall and pivot figures cover only the
   re-solves that ended below it, and [capped] counts the others. *)
let resolve_steps = 20

let resolves (sf : Lp.Std_form.t) ~root_basis ~root_ticks rng =
  let n_total = Lp.Std_form.n_total sf in
  let root_lb = Array.sub sf.lb 0 n_total and root_ub = Array.sub sf.ub 0 n_total in
  let int_cols =
    Array.of_list
      (List.filter (fun j -> sf.integer.(j)) (List.init sf.n_struct Fun.id))
  in
  let session = Lp.Simplex.create_session sf in
  let lb = Array.copy root_lb and ub = Array.copy root_ub in
  let parent = ref root_basis in
  let depth = 5 in
  let runs =
    List.init resolve_steps (fun step ->
        if step mod depth = 0 then begin
          Array.blit root_lb 0 lb 0 n_total;
          Array.blit root_ub 0 ub 0 n_total;
          parent := root_basis
        end;
        let j = int_cols.(Workload.Rng.int rng (Array.length int_cols)) in
        if Workload.Rng.bool rng then ub.(j) <- lb.(j) else lb.(j) <- ub.(j);
        let budget = Workloads.solve_budget (10.0 *. float_of_int root_ticks) in
        let r, s =
          timed (fun () ->
              Lp.Simplex.session_solve session ~budget ~warm:!parent ~lb ~ub ())
        in
        (match (r.status, r.final_basis) with
        | Lp.Simplex.Optimal, Some b -> parent := b
        | _ -> ());
        (us s, float_of_int r.Lp.Simplex.iterations, r.status = Lp.Simplex.Time_limit))
  in
  match List.filter (fun (_, _, c) -> not c) runs with
  | [] -> None
  | completed ->
    let walls = List.map (fun (w, _, _) -> w) completed in
    Some
      ( median walls,
        Statsutil.Stats.quantile 0.9 walls,
        median (List.map (fun (_, p, _) -> p) completed),
        resolve_steps - List.length completed )

type t = {
  metrics : (string * float) list;
  layer_wall : float;
      (** build + standard form + greedy + search: the probe walls that
          tile one solve of the probed instance *)
  failures : string list;
}

let run (w : Workloads.t) (p : Workloads.prepared) ~seed =
  let inst, ticks, jobs, node_limit = probe_target w p in
  let opts = Workloads.exact_options ~jobs ~node_limit () in
  let (fm, _), build_s =
    step "build" (fun () -> median_time 3 (fun () -> Solver.build inst opts))
  in
  let model = fm.Formulation.model in
  let sf, std_form_s =
    step "std_form" (fun () -> median_time 3 (fun () -> Lp.Std_form.of_model model))
  in
  let root_budget = Workloads.solve_budget infinity in
  let root, root_s =
    step "root" (fun () -> timed (fun () -> Lp.Simplex.solve ~budget:root_budget sf))
  in
  let failures = ref [] in
  let fail m = failures := m :: !failures in
  let rng = Workload.Rng.create (Int64.of_int (seed + 1)) in
  let factorize_us, ftran_us, btran_us, resolve_p50, resolve_p90, resolve_pivots, resolve_capped =
    match (root.Lp.Simplex.status, root.final_basis) with
    | Lp.Simplex.Optimal, Some basis ->
      let factorize_us, ftran_us, btran_us =
        step "kernels" (fun () -> kernels sf basis.basic)
      in
      let root_ticks = Runtime.Budget.ticks root_budget in
      let p50, p90, pivots, capped =
        match step "resolves" (fun () -> resolves sf ~root_basis:basis ~root_ticks rng) with
        | Some r -> r
        | None ->
          fail "every probe re-solve hit its cap";
          (0.0, 0.0, 0.0, resolve_steps)
      in
      (factorize_us, ftran_us, btran_us, p50, p90, pivots, capped)
    | _ ->
      fail "root LP not optimal";
      (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0)
  in
  let gstats = Runtime.Stats.create () in
  let gbudget = Workloads.solve_budget ticks in
  let (greedy_sol, _), greedy_s =
    timed (fun () -> Greedy.run ~budget:gbudget ~stats:gstats inst)
  in
  let initial = fm.Formulation.lift greedy_sol in
  let search_ticks =
    Float.max 1.0 (ticks -. float_of_int (Runtime.Budget.ticks gbudget))
  in
  let search jobs =
    let budget = Workloads.solve_budget search_ticks in
    let params = opts.Solver.Options.mip in
    let params = { params with jobs } in
    let r, s =
      timed (fun () -> Mip.Branch_bound.solve_form ~params ~initial ~budget sf)
    in
    ((r, Runtime.Budget.ticks budget), s)
  in
  let (r, r_ticks), search_s = step "search" (fun () -> search jobs) in
  let search_j1_s =
    if jobs = 1 then search_s
    else begin
      let (r1, r1_ticks), s1 = step "search_j1" (fun () -> search 1) in
      let key (r : Mip.Branch_bound.result) t =
        Printf.sprintf "%s %h %h %d %d"
          (Mip.Branch_bound.status_to_string r.status)
          (Option.value r.objective ~default:Float.nan)
          r.best_bound r.nodes t
      in
      if key r r_ticks <> key r1 r1_ticks then fail "search differs between jobs levels";
      s1
    end
  in
  let f = float_of_int in
  let nodes = r.Mip.Branch_bound.nodes in
  {
    metrics =
      [
        ("lina.factorize_us", factorize_us);
        ("lina.ftran_us", ftran_us);
        ("lina.btran_us", btran_us);
        ("lp.root_solve_s", root_s);
        ("lp.root_pivots", f root.iterations);
        ("lp.resolve_us_p50", resolve_p50);
        ("lp.resolve_us_p90", resolve_p90);
        ("lp.resolve_pivots_p50", resolve_pivots);
        ("lp.resolve_capped", f resolve_capped);
        ("lp.std_form_s", std_form_s);
        ("mip.search_s", search_s);
        ("mip.nodes", f nodes);
        ("mip.nodes_per_s", f nodes /. search_s);
        ("mip.search_j1_s", search_j1_s);
        ("mip.parallel_eff", search_j1_s /. (f jobs *. search_s));
        ("tvnep.build_s", build_s);
        ("tvnep.model_rows", f (Lp.Model.num_constrs model));
        ("tvnep.model_vars", f (Lp.Model.num_vars model));
        ("tvnep.greedy_s", greedy_s);
        ("tvnep.greedy_lps", f gstats.Runtime.Stats.greedy_lp_solves);
        ("tvnep.greedy_candidates", f gstats.greedy_candidates);
      ];
    layer_wall = build_s +. std_form_s +. greedy_s +. search_s;
    failures = List.rev !failures;
  }
