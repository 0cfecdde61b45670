(* The benchmark's workloads: the inputs each generates from the seed,
   the operation its timed phase performs through the public API, the
   checks applied to every output, and the fingerprint that pins its
   decisions.

   Every solve runs on a deterministic work clock, so a given input
   always leads to the same search and the same decisions; wall time is
   what the benchmark measures.  A run is many independent operations
   (instances, or short served streams) rather than one big one: the
   cost of a single TVNEP input varies several-fold with the draw, and
   only averaging over many draws keeps one seed's run comparable to
   another's. *)

open Tvnep

let work_rate = Service.Engine.default_work_rate

type solve_spec = {
  scenario : Scenario.params;
  ticks : float;  (** work-clock budget of one solve *)
  node_limit : int;  (** branch-and-bound nodes per solve *)
  jobs : int;
}

type serve_spec = {
  stream : Scenario.params;
  cancel_prob : float;  (** share of arrivals cancelled early *)
  slice : float;
  exact_fraction : float;
}

type kind = Solve of solve_spec | Serve of serve_spec

type t = {
  name : string;
  kind : kind;
  op_s : float;
      (** wall seconds one operation takes on a 2-core x86-64 host at
          about 2.5 GHz; a run holds [--seconds / op_s] operations, so its
          timed phase lasts about [--seconds] there *)
}

(* Paper scale.  The search stops after the root node: every solve does
   the greedy seeding and the root LP in full (a budget that cut the root
   LP short would leave some instances without a dual bound) and the
   branch-and-bound scheduler stays idle.  The work-clock budget is a cap
   the root never reaches. *)
let solve_paper =
  {
    name = "solve-paper";
    kind =
      Solve
        {
          scenario = { Scenario.paper with flexibility = 1.0 };
          ticks = 1e9;
          node_limit = 1;
          jobs = 1;
        };
    op_s = 1.1;
  }

(* |R| = 10 rather than the 8 of the parallel B&B gate: at 8 requests a
   third of the instances are proved optimal within a fraction of the
   budget, which makes a run's wall time depend on how many easy
   instances its seed drew.  At 10 the budget ends inside the search. *)
let solve_contended =
  {
    name = "solve-contended";
    kind =
      Solve
        {
          scenario =
            { Scenario.scaled with num_requests = 10; flexibility = 2.0 };
          ticks = 1e8;
          node_limit = max_int;
          jobs = 2;
        };
    op_s = 1.5;
  }

(* Short independent streams: the load of one long stream drifts for
   hundreds of arrivals, so a single stream's cost depends on its seed
   far more than the average over many short ones does. *)
let serve_churn =
  {
    name = "serve-churn";
    kind =
      Serve
        {
          stream =
            { Scenario.paper with num_requests = 30; flexibility = 1.0 };
          cancel_prob = 0.3;
          slice = 0.002;
          exact_fraction = 0.3;
        };
    op_s = 0.8;
  }

let all = [ solve_paper; solve_contended; serve_churn ]
let find name = List.find_opt (fun w -> w.name = name) all
let jobs w = match w.kind with Solve s -> s.jobs | Serve _ -> 1

(* --- inputs ------------------------------------------------------------- *)

type input =
  | Instance of Instance.t
  | Stream of Instance.t * Service.Event.t list

type prepared = { inputs : input array; warmup : input array }

let draw rng w =
  match w.kind with
  | Solve s -> Instance (Scenario.generate rng s.scenario)
  | Serve s ->
    let inst = Scenario.generate rng s.stream in
    let events =
      Service.Event.with_cancellations rng ~prob:s.cancel_prob inst
        (Service.Event.arrivals inst)
    in
    Stream (inst, events)

(* The measured inputs are drawn from one generator seeded by [--seed].
   The warm-up inputs are the same for every seed, so that set-up time
   does not swing with the cost of one random draw, and there are enough
   of them to last about a second: a shorter warm-up times too little
   work to read the same from run to run. *)
let generate w ~seed ~seconds =
  let rng = Workload.Rng.create (Int64.of_int seed) in
  let n = max 1 (int_of_float (Float.round (seconds /. w.op_s))) in
  let inputs = Array.init n (fun _ -> draw rng w) in
  let warm_rng = Workload.Rng.create 0L in
  let warmup =
    Array.init (int_of_float (Float.ceil (1.0 /. w.op_s))) (fun _ -> draw warm_rng w)
  in
  { inputs; warmup }

(* A canonical rendering of the inputs, for the determinism tests. *)
let inputs_digest inputs =
  let render = function
    | Instance inst -> Instance_io.to_string inst
    | Stream (inst, events) ->
      let ev (e : Service.Event.t) =
        Printf.sprintf "%h %s %d" e.time
          (Service.Event.kind_to_string e.kind)
          e.request
      in
      String.concat "\n" (Instance_io.to_string inst :: List.map ev events)
  in
  Digest.to_hex
    (Digest.string (String.concat "\n" (Array.to_list (Array.map render inputs))))

(* The traced run measures the first half of the inputs twice (untraced,
   then traced), so that it lasts about as long as the untraced run. *)
let first_half inputs = Array.sub inputs 0 ((Array.length inputs + 1) / 2)

let arrivals inputs =
  Array.fold_left
    (fun acc -> function
      | Instance inst -> acc + Instance.num_requests inst
      | Stream (_, events) ->
        acc
        + List.length
            (List.filter
               (fun (e : Service.Event.t) -> e.kind = Service.Event.Arrival)
               events))
    0 inputs

(* Operations attempted: one per solve, one per arrival of a stream. *)
let attempted w inputs =
  match w.kind with Solve _ -> Array.length inputs | Serve _ -> arrivals inputs

(* --- operations --------------------------------------------------------- *)

(* Exact cΣ in arc form with every cut, access control, greedy seeding. *)
let exact_options ~jobs ~node_limit ?budget ?prof () =
  let mip =
    { Mip.Branch_bound.default_params with jobs; node_limit; log_every = 0 }
  in
  Solver.Options.make ~method_:Solver.Exact ~kind:Solver.Csigma
    ~objective:Objective.Access_control ~use_cuts:true ~pairwise_cuts:true
    ~seed_with_greedy:true ~mip ?budget ?prof ()

let solve_budget ticks =
  Runtime.Budget.create ~deterministic:work_rate
    ~time_limit:(ticks /. work_rate) ()

let serve_config (s : serve_spec) ?prof () =
  Service.Engine.Config.make ~slice:s.slice ~exact_fraction:s.exact_fraction
    ~rounding:true ~jobs:1 ?prof ()

type result =
  | Solved of Instance.t * Solver.outcome
  | Served of Instance.t * Service.Engine.summary * Solution.t list
      (** the stream's summary and every [on_commit] snapshot *)
  | Raised of string

type op = { result : result; wall : float; prof : Runtime.Span.recorder option }

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* [f ()], with its wall time logged on standard error. *)
let step name f =
  let r, s = timed f in
  Printf.eprintf "[perfbench] %s: %.2f s\n%!" name s;
  r

let run_op w ~traced input =
  let prof = if traced then Some (Runtime.Span.create ()) else None in
  let result, wall =
    timed @@ fun () ->
    try
      match (w.kind, input) with
      | Solve s, Instance inst ->
        let budget = solve_budget s.ticks in
        let o =
          exact_options ~jobs:s.jobs ~node_limit:s.node_limit ~budget ?prof ()
        in
        Solved (inst, Solver.run inst o)
      | Serve s, Stream (inst, events) ->
        let commits = ref [] in
        let summary =
          Service.Engine.serve ~config:(serve_config s ?prof ())
            ~on_commit:(fun _ sol -> commits := sol :: !commits)
            ~events inst
        in
        Served (inst, summary, List.rev !commits)
      | _ -> invalid_arg "Workloads.run_op: input does not match the workload"
    with e -> Raised (Printexc.to_string e)
  in
  { result; wall; prof }

(* One pass over the inputs.  An exception ends that operation only; the
   pass goes on and the check step counts it as a failure.  With
   [~traced] every operation gets its own span recorder. *)
let run_pass w ~traced inputs =
  Array.to_list (Array.map (run_op w ~traced) inputs)

(* The warm-up runs on inputs of its own: it touches every layer the
   timed phase uses and grows the heap to its working size. *)
let warm_up w p = ignore (run_pass w ~traced:false p.warmup)

(* --- checks ------------------------------------------------------------- *)

let close a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.abs a)

(* The validator runs are timed here, outside the timed phase; their
   walls feed the [tvnep.validate_us] probe. *)
let validate inst sol =
  let r, wall = timed (fun () -> Validator.check inst sol) in
  ( (match r with
    | Ok () -> []
    | Error vs -> [ "validator: " ^ String.concat "; " vs ]),
    wall )

let check_solve inst (o : Solver.outcome) =
  let status_errs =
    match o.status with Solver.Failed -> [ "status Failed" ] | _ -> []
  in
  let bound_errs =
    if Float.is_finite o.bound then [] else [ "non-finite bound" ]
  in
  match (o.solution, o.objective) with
  | None, _ | _, None -> (status_errs @ bound_errs @ [ "no incumbent" ], [])
  | Some sol, Some obj ->
    let v_errs, v_wall = validate inst sol in
    let obj_errs =
      if close (Solution.access_control_value inst sol) obj then []
      else [ "objective differs from the solution's revenue" ]
    in
    let dual_errs =
      if o.bound < obj -. (1e-6 *. Float.max 1.0 (Float.abs obj)) then
        [ "bound below objective" ]
      else []
    in
    (status_errs @ bound_errs @ v_errs @ obj_errs @ dual_errs, [ v_wall ])

let check_serve inst (s : Service.Engine.summary) commits =
  let snaps = List.map (validate inst) commits in
  let final_errs, final_wall = validate inst s.solution in
  let arrivals =
    List.filter
      (fun (r : Service.Engine.record) -> r.event = Service.Event.Arrival)
      (Array.to_list s.records)
  in
  let admitted = List.filter (fun (r : Service.Engine.record) -> r.admitted) arrivals in
  let revenue =
    List.fold_left (fun acc (r : Service.Engine.record) -> acc +. r.revenue) 0.0 arrivals
  in
  let agg_errs =
    List.concat
      [
        (if List.length admitted = s.accepted then [] else [ "accepted count" ]);
        (if List.length arrivals = s.accepted + s.denied then []
         else [ "accepted + denied <> arrivals" ]);
        (if List.length commits = s.accepted then [] else [ "commit snapshots" ]);
        (if close revenue s.revenue then [] else [ "revenue differs from records" ]);
      ]
  in
  ( List.concat_map fst snaps @ final_errs @ agg_errs,
    List.map snd snaps @ [ final_wall ] )

(* Failure messages (one per failed check) and validator walls. *)
let check op =
  match op.result with
  | Raised e -> ([ "exception: " ^ e ], [])
  | Solved (inst, o) -> check_solve inst o
  | Served (inst, s, commits) -> check_serve inst s commits

(* --- fingerprint -------------------------------------------------------- *)

let fingerprint_op op =
  match op.result with
  | Raised e -> "raised " ^ e
  | Solved (_, o) ->
    Printf.sprintf "%s %h %h %d %d"
      (Solver.status_to_string o.status)
      (Option.value o.objective ~default:Float.nan)
      o.bound o.nodes o.ticks
  | Served (_, s, _) ->
    let record (r : Service.Engine.record) =
      Printf.sprintf "%d %s %b %s %d %h %h %h" r.request
        (Service.Event.kind_to_string r.event)
        r.admitted
        (Service.Engine.rung_to_string r.rung)
        r.ticks r.t_start r.t_end r.revenue
    in
    String.concat "\n"
      (Array.to_list (Array.map record s.records)
      @ [ Printf.sprintf "%h %d" s.revenue s.total_ticks ])

let fingerprint ops = String.concat "\n" (List.map fingerprint_op ops)

(* --- deterministic aggregates ------------------------------------------ *)

let revenue_of inst i =
  let r = Instance.request inst i in
  r.Request.duration *. Request.total_node_demand r

type quality = {
  revenue : float;  (** Σ incumbent objective, or admitted revenue *)
  offered : float;  (** Σ revenue of every request offered *)
  bound : float;
      (** Σ proved bound of the solves; for a stream, admitted revenue
          plus the revenue of arrivals denied without proof (at the
          greedy or budget rung) *)
  accepted : int;
  requests : int;
  gap_mean : float;  (** mean relative gap of the solves; 0 for streams *)
  ticks : int;
  nodes : int;
}

let quality ops =
  let zero =
    { revenue = 0.0; offered = 0.0; bound = 0.0; accepted = 0; requests = 0;
      gap_mean = 0.0; ticks = 0; nodes = 0 }
  in
  let add q op =
    match op.result with
    | Raised _ -> q
    | Solved (inst, o) ->
      let k = Instance.num_requests inst in
      {
        revenue = q.revenue +. Option.value o.objective ~default:0.0;
        offered =
          q.offered +. Array.fold_left ( +. ) 0.0 (Array.init k (revenue_of inst));
        bound = q.bound +. o.bound;
        accepted =
          (q.accepted
          + match o.solution with Some s -> Solution.num_accepted s | None -> 0);
        requests = q.requests + k;
        gap_mean = q.gap_mean +. o.gap;
        ticks = q.ticks + o.ticks;
        nodes = q.nodes + o.nodes;
      }
    | Served (inst, s, _) ->
      let arrivals =
        List.filter
          (fun (r : Service.Engine.record) -> r.event = Service.Event.Arrival)
          (Array.to_list s.records)
      in
      let sum f =
        List.fold_left
          (fun acc (r : Service.Engine.record) -> acc +. f r)
          0.0 arrivals
      in
      let unproven (r : Service.Engine.record) =
        (not r.admitted)
        && (r.rung = Service.Engine.Greedy || r.rung = Service.Engine.Budget)
      in
      {
        q with
        revenue = q.revenue +. s.revenue;
        offered = q.offered +. sum (fun r -> revenue_of inst r.request);
        bound =
          q.bound +. s.revenue
          +. sum (fun r -> if unproven r then revenue_of inst r.request else 0.0);
        accepted = q.accepted + s.accepted;
        requests = q.requests + List.length arrivals;
        ticks = q.ticks + s.total_ticks;
      }
  in
  let q = List.fold_left add zero ops in
  let solves =
    List.length
      (List.filter (fun op -> match op.result with Solved _ -> true | _ -> false) ops)
  in
  { q with gap_mean = (if solves = 0 then 0.0 else q.gap_mean /. float_of_int solves) }
