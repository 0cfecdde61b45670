module B = Runtime.Budget
module Rstats = Runtime.Stats
module Span = Runtime.Span
module Pool = Runtime.Pool
module Instance = Tvnep.Instance
module Request = Tvnep.Request
module Solution = Tvnep.Solution
module Solver = Tvnep.Solver
module Objective = Tvnep.Objective
module Validator = Tvnep.Validator
module Json = Statsutil.Json

type rung = Exact | Rounded | Greedy | Budget | Priced | Migrated

let rung_names =
  [ (Exact, "exact"); (Rounded, "rounded"); (Greedy, "greedy");
    (Budget, "budget"); (Priced, "priced"); (Migrated, "migrated") ]

let rung_to_string r = List.assoc r rung_names

let rung_of_string s =
  List.find_map (fun (r, n) -> if n = s then Some r else None) rung_names

type record = {
  request : int;
  name : string;
  time : float;
  event : Event.kind;
  admitted : bool;
  rung : rung;
  exact_status : Tvnep.Solver.status option;
  greedy_status : Tvnep.Solver.status option;
  revenue : float;
  priced_cost : float;
  t_start : float;
  t_end : float;
  ticks : int;
  reevaluated : bool;
  moved : int list;
}

type summary = {
  records : record array;
  solution : Tvnep.Solution.t;
  events : int;
  accepted : int;
  denied : int;
  departed : int;
  migrations : int;
  acceptance_ratio : float;
  revenue : float;
  admitted_exact : int;
  admitted_rounded : int;
  admitted_greedy : int;
  admitted_migrated : int;
  denied_exact : int;
  denied_rounded : int;
  denied_greedy : int;
  denied_budget : int;
  denied_priced : int;
  ticks_p50 : int;
  ticks_p99 : int;
  total_ticks : int;
  runtime : float;
  node_prices : float array;
  link_prices : float array;
  stats : Runtime.Stats.t;
}

(* Same rate as the bench harness's deterministic work clock, so service
   tick counts are comparable with the solver benches. *)
let default_work_rate = 2e9

module Config = struct
  type t = {
    kind : Tvnep.Solver.model_kind;
    use_cuts : bool;
    pairwise_cuts : bool;
    mip : Mip.Branch_bound.params;
    slice : float;
    exact_fraction : float;
    time_limit : float;
    deterministic : float option;
    batch_size : int;
    jobs : int;
    departures : bool;
    reconfigure : bool;
    reconfigure_limit : int;
    move_cost : float;
    rounding : bool;
    pricing : bool;
    price : Pricing.params;
    prof : Runtime.Span.recorder option;
  }

  let make ?(kind = Solver.Csigma) ?(use_cuts = true) ?(pairwise_cuts = true)
      ?(mip = Mip.Branch_bound.default_params) ?(slice = 0.5)
      ?(exact_fraction = 0.7) ?(time_limit = infinity)
      ?(deterministic = Some default_work_rate) ?(batch_size = 4) ?(jobs = 1)
      ?(departures = true) ?(reconfigure = false) ?(reconfigure_limit = 2)
      ?(move_cost = 0.1) ?(rounding = false) ?(pricing = false)
      ?(price = Pricing.default_params) ?prof () =
    if slice <= 0.0 || not (Float.is_finite slice) then
      invalid_arg "Engine.Config.make: non-positive slice";
    if exact_fraction < 0.0 || exact_fraction > 1.0 then
      invalid_arg "Engine.Config.make: exact_fraction outside [0, 1]";
    if batch_size < 1 then
      invalid_arg "Engine.Config.make: non-positive batch_size";
    if jobs < 1 then invalid_arg "Engine.Config.make: non-positive jobs";
    if time_limit <= 0.0 then
      invalid_arg "Engine.Config.make: non-positive time_limit";
    if reconfigure_limit < 0 then
      invalid_arg "Engine.Config.make: negative reconfigure_limit";
    if move_cost < 0.0 || not (Float.is_finite move_cost) then
      invalid_arg "Engine.Config.make: negative move_cost";
    {
      kind;
      use_cuts;
      pairwise_cuts;
      mip;
      slice;
      exact_fraction;
      time_limit;
      deterministic;
      batch_size;
      jobs;
      departures;
      reconfigure;
      reconfigure_limit;
      move_cost;
      rounding;
      pricing;
      price;
      prof;
    }

  let default = make ()
end

(* A speculative decision for one arrival, computed against a snapshot of
   the committed state.  [p_solution] is the full proposed committed
   state on the original instance (snapshot assignments with the
   participants' re-optimized flows and the arrival's schedule), already
   validated — applying it is a plain array replacement; [None] denies.
   [p_moved] lists the committed requests whose start the proposal
   migrates. *)
type proposal = {
  p_rung : rung;
  p_exact : Solver.status option;
  p_greedy : Solver.status option;
  p_solution : Solution.t option;
  p_priced_cost : float;
  p_moved : int list;
  p_stats : Runtime.Stats.t;
}

let propose ~pstats ?exact ?greedy ?solution ?(priced_cost = nan)
    ?(moved = []) rung =
  {
    p_rung = rung;
    p_exact = exact;
    p_greedy = greedy;
    p_solution = solution;
    p_priced_cost = priced_cost;
    p_moved = moved;
    p_stats = pstats;
  }

let rec take k acc = function
  | x :: rest when k > 0 -> take (k - 1) (x :: acc) rest
  | rest -> (List.rev acc, rest)

(* What one rung's run concluded. *)
type result =
  | Admits of { sol : Solution.t; moved : int list; proven : bool }
      (* an evaluation solution admitting the arrival, and the committed
         requests it migrates; [proven]: should the validator reject the
         solution, the rung has still proved the denial *)
  | Proves  (* a proven denial, recorded at the rung *)
  | Passes  (* inconclusive: the verdict so far stands *)

(* The verdict of the chain so far. *)
type verdict =
  | Open                 (* no rung has concluded *)
  | Denied of rung       (* a denial a later rung may still overturn *)
  | Decided of proposal  (* admitted, or denied at [Priced]: final *)

(* One rung of the degradation chain.  [applies] is checked against the
   verdict so far, just before the rung would run; [run] runs inside a
   [label] span. *)
type step = {
  rung : rung;  (* recorded when this rung concludes *)
  label : string;
  applies : verdict -> bool;
  run : unit -> result;
}

(* Evaluate one arrival against the committed snapshot on a private
   budget fork.  Pure speculation: no shared state is written, so batch
   members may run concurrently; the merge loop decides what commits.
   [now] is the arrival's event time; [prices] is a snapshot of the
   pricing state when the pricing policy is on. *)
let evaluate (cfg : Config.t) inst (assignments : Solution.assignment array)
    committed req ~now ~prices ~fork ~fprof =
  let pstats = Rstats.create () in
  (* Outcomes of the exact and greedy rungs, when they ran. *)
  let exact = ref None and greedy = ref None in
  Span.with_ fprof fork "arrival" @@ fun () ->
  try
    let r = Instance.request inst req in
    (* The evaluation instance: every committed request — window narrowed
       to exactly its committed interval and schedule pinned, so the
       solver may re-route its flows but never move or evict it — plus
       the arrival with its window clipped to the present. *)
    let idxs = committed @ [ req ] in
    let window (r : Request.t) ~start_min ~end_max =
      Request.make ~name:r.Request.name ~graph:r.Request.graph
        ~node_demand:r.Request.node_demand ~link_demand:r.Request.link_demand
        ~duration:r.Request.duration ~start_min ~end_max
    in
    let clipped (r : Request.t) =
      window r
        ~start_min:(Float.max r.Request.start_min now)
        ~end_max:r.Request.end_max
    in
    let narrowed i =
      let r = Instance.request inst i in
      if i = req then clipped r
      else
        let a = assignments.(i) in
        window r ~start_min:a.Solution.t_start
          ~end_max:(a.Solution.t_start +. r.Request.duration)
    in
    let mappings =
      Array.of_list
        (List.map (fun i -> Option.get (Instance.node_mapping inst i)) idxs)
    in
    let evaluation requests =
      Instance.with_requests inst
        (Array.of_list (List.map requests idxs))
        ~node_mappings:mappings ()
    in
    let ev = evaluation narrowed in
    let cand_pos = List.length committed in
    let pinned =
      List.mapi (fun pos i -> (pos, assignments.(i).Solution.t_start)) committed
    in
    (* Lift an evaluation solution back onto the original instance: the
       participants' assignments replace their committed ones (joint flow
       re-optimization re-routes everyone), the rest stay rejected. *)
    let lift (sol : Solution.t) =
      let out = Array.copy assignments in
      List.iteri
        (fun pos i ->
          let a = sol.Solution.assignments.(pos) in
          let r = Instance.request inst i in
          out.(i) <-
            { a with Solution.t_end = a.Solution.t_start +. r.Request.duration })
        idxs;
      let s = { Solution.assignments = out; objective = 0.0 } in
      { s with Solution.objective = Solution.access_control_value inst s }
    in
    (* The admission tail of every rung.  The proposed full state must
       pass the independent validator before it may commit — [None]
       otherwise, and the rung's own verdict stands.  With the pricing
       policy on, revenue must then cover the priced cost of the admitted
       assignment, else the arrival is denied at the [Priced] rung. *)
    let conclude ~rung ~moved sol =
      let lifted = lift sol in
      match
        Span.with_ fprof fork "validate" @@ fun () ->
        Validator.check inst lifted
      with
      | Error _ -> None
      | Ok () ->
        let exact = !exact and greedy = !greedy in
        let cost =
          match prices with
          | None -> nan
          | Some pr ->
            Pricing.assignment_cost pr inst req
              lifted.Solution.assignments.(req)
        in
        let revenue = r.Request.duration *. Request.total_node_demand r in
        Some
          (if revenue +. 1e-9 < cost then
             propose ~pstats ?exact ?greedy ~priced_cost:cost Priced
           else
             propose ~pstats ?exact ?greedy ~solution:lifted ~priced_cost:cost
               ~moved rung)
    in
    (* Every rung's search runs single-domain on its own sub-budget and
       bills its counters to the arrival. *)
    let mip =
      {
        cfg.Config.mip with
        Mip.Branch_bound.time_limit = infinity;
        jobs = 1;
        log_every = 0;
      }
    in
    let solve ?(inst = ev) ?(pinned = pinned) ?forced ?objective ?rounding
        ~method_ ~budget () =
      let o =
        Solver.run inst
          (Solver.Options.make ~method_ ~kind:cfg.Config.kind
             ~use_cuts:cfg.Config.use_cuts
             ~pairwise_cuts:cfg.Config.pairwise_cuts ~mip ~budget ~pinned
             ?forced ?objective ?rounding ?prof:fprof ())
      in
      Rstats.merge ~into:pstats o.Solver.stats;
      o
    in
    let found (o : Solver.outcome) =
      match o.Solver.status with
      | Solver.Optimal | Solver.Feasible -> o.Solver.solution
      | _ -> None
    in
    let offer ?(moved = []) ~proven = function
      | Some sol when sol.Solution.assignments.(cand_pos).Solution.accepted ->
        Admits { sol; moved; proven }
      | _ -> if proven then Proves else Passes
    in
    let live () = B.remaining fork > 0.0 in
    let is_open = function Open -> true | Denied _ | Decided _ -> false in
    (* Rung 1: exact branch-and-bound on a fraction of the slice.  A
       proved optimum that rejects the arrival is a proven denial: with
       every committed request pinned, the objective differs from "admit
       the arrival" only in the arrival's own term.  A re-embedding of
       not-yet-started commitments may still flip it — the
       reconfiguration rung's job. *)
    let exact_rung =
      {
        rung = Exact;
        label = "exact";
        applies = is_open;
        run =
          (fun () ->
            let xo =
              solve ~method_:Solver.Exact
                ~budget:
                  (B.sub
                     ~time_limit:(cfg.Config.exact_fraction *. cfg.Config.slice)
                     fork)
                ()
            in
            exact := Some xo.Solver.status;
            offer ~proven:(xo.Solver.status = Solver.Optimal) (found xo));
      }
    in
    (* Reconfiguration rung, after a proven exact denial: a bounded set of
       committed requests that have not started yet ([t⁺ > now]) gets its
       windows re-opened and its acceptance forced, the candidate stays
       free, and the objective charges [move_cost] per unit of schedule
       displacement — an admission enabled by migrations must pay for
       them in-model.  [movable] pairs each re-opened request with its
       position in the evaluation instance. *)
    let reconfigure_rung () =
      let start i = assignments.(i).Solution.t_start in
      let movable, _ =
        List.mapi (fun pos i -> (pos, i)) committed
        |> List.filter (fun (_, i) -> start i > now +. 1e-9)
        |> List.sort (fun (_, a) (_, b) -> compare (start a, a) (start b, b))
        |> take cfg.Config.reconfigure_limit []
      in
      {
        rung = Migrated;
        label = "reconfigure";
        applies =
          (function Denied Exact -> movable <> [] && live () | _ -> false);
        run =
          (fun () ->
            let reopened, kept =
              List.partition (fun (pos, _) -> List.mem_assoc pos movable) pinned
            in
            let widened i =
              if List.exists (fun (_, j) -> j = i) movable then
                clipped (Instance.request inst i)
              else narrowed i
            in
            let ro =
              solve ~inst:(evaluation widened) ~method_:Solver.Exact
                ~budget:
                  (B.sub
                     ~time_limit:
                       (cfg.Config.exact_fraction
                       *. Float.max 0.0 (B.remaining fork))
                     fork)
                ~pinned:kept ~forced:(List.map fst reopened)
                ~objective:
                  (Objective.Access_with_move_cost
                     { weight = cfg.Config.move_cost; reference = reopened })
                ()
            in
            match found ro with
            | Some sol ->
              let moved =
                List.filter_map
                  (fun (pos, i) ->
                    if
                      Float.abs
                        (sol.Solution.assignments.(pos).Solution.t_start
                        -. start i)
                      > 1e-9
                    then Some i
                    else None)
                  movable
              in
              offer ~moved ~proven:false (Some sol)
            | None -> Passes);
      }
    in
    (* Randomized-rounding rung, on an inconclusive exact outcome: solve
       the cΣ LP relaxation of the pinned evaluation instance, decompose
       it into a convex combination of integral schedules, and round with
       bounded repair ([Solver.Rounded]).  The rounding seed is a
       function of the request index alone — independent of batch shape
       or worker domain, so decisions stay jobs-invariant.  The rung gets
       half of whatever remains of the slice, leaving the other half for
       the greedy fallback when rounding produces nothing.  An infeasible
       LP relaxation of the pinned instance means no completion can admit
       the arrival: a proven denial, cheaper than the exact rung's. *)
    let rounded_rung =
      {
        rung = Rounded;
        label = "rounded";
        applies = (fun v -> is_open v && live ());
        run =
          (fun () ->
            let budget =
              B.sub ~time_limit:(0.5 *. Float.max 0.0 (B.remaining fork)) fork
            in
            let rounding =
              {
                Tvnep.Rounding.default_params with
                seed = Int64.of_int (0x5eed1 + req);
              }
            in
            match solve ~method_:Solver.Rounded ~budget ~rounding () with
            | exception Invalid_argument _ -> Passes
            | ro when ro.Solver.status = Solver.Infeasible -> Proves
            | ro -> offer ~proven:false ro.Solver.solution);
      }
    in
    (* Greedy fallback on the rest of the slice.  The heuristic raises
       when even the committed preplacements cannot be re-established —
       with a validator-gated committed state that only happens when the
       slice dies under its feasibility LP, so it counts as budget
       exhaustion; a rejection by an exhausted scan proves nothing
       either. *)
    let greedy_rung =
      {
        rung = Greedy;
        label = "greedy";
        applies = (fun v -> is_open v && live ());
        run =
          (fun () ->
            match solve ~method_:Solver.Greedy ~budget:fork () with
            | exception Invalid_argument _ ->
              greedy := Some Solver.Budget_exhausted;
              Passes
            | go ->
              greedy := Some go.Solver.status;
              offer
                ~proven:(go.Solver.status <> Solver.Budget_exhausted)
                go.Solver.solution);
      }
    in
    let chain =
      (exact_rung
       :: (if cfg.Config.reconfigure && cfg.Config.reconfigure_limit > 0 then
             [ reconfigure_rung () ]
           else []))
      @ (if cfg.Config.rounding then [ rounded_rung ] else [])
      @ [ greedy_rung ]
    in
    let verdict =
      List.fold_left
        (fun verdict step ->
          if not (step.applies verdict) then verdict
          else
            match Span.with_ fprof fork step.label step.run with
            | Passes -> verdict
            | Proves -> Denied step.rung
            | Admits { sol; moved; proven } -> (
              match conclude ~rung:step.rung ~moved sol with
              | Some p -> Decided p
              | None -> if proven then Denied step.rung else verdict))
        Open chain
    in
    match verdict with
    | Decided p -> p
    | Denied rung -> propose ~pstats ?exact:!exact ?greedy:!greedy rung
    | Open ->
      (* No rung concluded before the slice ran out. *)
      propose ~pstats ?exact:!exact ?greedy:!greedy Budget
  with _ ->
    (* Defensive: an unexpected solver failure denies the arrival instead
       of taking the whole stream down.  Deterministic — the same state
       fails the same way at any jobs level. *)
    propose ~pstats ~greedy:Solver.Failed Greedy

(* Nearest-rank percentile of a sorted array. *)
let percentile p sorted =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    sorted.(min (n - 1)
              (max 0 (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let validate_events inst events =
  let k = Instance.num_requests inst in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (ev : Event.t) ->
      if ev.Event.request < 0 || ev.Event.request >= k then
        invalid_arg "Engine.serve: event request out of range";
      if not (Float.is_finite ev.Event.time) then
        invalid_arg "Engine.serve: non-finite event time";
      if ev.Event.kind = Event.Arrival then begin
        if Hashtbl.mem seen ev.Event.request then
          invalid_arg "Engine.serve: request arrives twice";
        Hashtbl.replace seen ev.Event.request ()
      end)
    events

let serve ?(config = Config.default) ?on_commit ?events inst =
  if not (Instance.has_fixed_mappings inst) then
    invalid_arg "Engine.serve: fixed node mappings required";
  let events =
    match events with
    | Some evs -> Event.normalize evs
    | None -> Event.arrivals inst
  in
  validate_events inst events;
  let global =
    match config.Config.deterministic with
    | Some rate ->
      B.create ~deterministic:rate ~time_limit:config.Config.time_limit ()
    | None -> B.create ~time_limit:config.Config.time_limit ()
  in
  let stats = Rstats.create () in
  let t0 = B.elapsed global in
  let k = Instance.num_requests inst in
  let assignments =
    Array.init k (fun i -> Solution.rejected (Instance.request inst i))
  in
  let committed = ref [] in
  let version = ref 0 in
  let records = ref [] in
  (* Lifecycle state alongside the assignments: the rung that admitted
     each committed request (reported again by its departure record) and
     the time its capacity returns (endogenous departure). *)
  let admit_rung = Array.make k Exact in
  let release_at = Array.make k None in
  let price_state =
    if config.Config.pricing then
      Some (Pricing.create inst config.Config.price)
    else None
  in
  let current_solution () =
    let s = { Solution.assignments = Array.copy assignments; objective = 0.0 } in
    { s with Solution.objective = Solution.access_control_value inst s }
  in
  let reprice () =
    match price_state with
    | Some pr -> Pricing.update pr inst (current_solution ())
    | None -> ()
  in
  (* Release one committed request, validator-gated: the post-release
     state must equal the committed one minus exactly this assignment and
     still be feasible on its own.  A failure here is an engine invariant
     violation — the committed state was gated on commit — so it is fatal
     rather than a denial. *)
  let release ~time req =
    let before = current_solution () in
    let after = Solution.release inst before req in
    (match Validator.check_release inst ~before ~after ~released:req with
    | Ok () -> ()
    | Error es ->
      failwith
        (Printf.sprintf "Engine.serve: release of request %d rejected: %s" req
           (String.concat "; " es)));
    let released = assignments.(req) in
    assignments.(req) <- Solution.rejected (Instance.request inst req);
    committed := List.filter (fun i -> i <> req) !committed;
    release_at.(req) <- None;
    incr version;
    reprice ();
    records :=
      {
        request = req;
        name = (Instance.request inst req).Request.name;
        time;
        event = Event.Departure;
        admitted = false;
        rung = admit_rung.(req);
        exact_status = None;
        greedy_status = None;
        revenue = 0.0;
        priced_cost = nan;
        t_start = released.Solution.t_start;
        t_end = released.Solution.t_end;
        ticks = 0;
        reevaluated = false;
        moved = [];
      }
      :: !records
  in
  (* Endogenous departures: every committed request whose interval has
     closed by [now] releases, ordered by (departure time, request) so
     the merge stream stays total-ordered and jobs-invariant. *)
  let process_due now =
    let due =
      List.filter_map
        (fun i ->
          match release_at.(i) with
          | Some t when t <= now +. 1e-12 -> Some (t, i)
          | _ -> None)
        !committed
    in
    List.iter (fun (t, i) -> release ~time:t i) (List.sort compare due)
  in
  let pool =
    if config.Config.jobs > 1 then Some (Pool.create ~jobs:config.Config.jobs)
    else None
  in
  let dead_proposal () = propose ~pstats:(Rstats.create ()) Budget in
  (* One slice of the global budget per evaluation, speculative or
     stale re-evaluation alike: a fork of [slice] seconds, a child span
     recorder rebased to the fork's private clock, and the evaluation of
     the arrival against [committed] on them, to run on any worker.
     [settle] brings the slice home on the merging domain, in event
     order: its spans are grafted onto the global timeline at the
     pre-join tick count, its fork joins the global budget, and the
     ticks billed to it are returned.  Forks are opened sequentially and
     settled in event order, never read across, so every deadline, tick
     stamp and decision is independent of which worker ran what — and
     the merged trace tiles exactly and is identical at any jobs level,
     up to the domain tags. *)
  let open_slice ~committed ~prices (ev : Event.t) =
    let fork = B.fork (B.sub ~time_limit:config.Config.slice global) in
    let fprof =
      Option.map
        (fun _ -> Span.create ~base:(B.ticks fork) ())
        config.Config.prof
    in
    let run ~worker =
      Option.iter (fun r -> Span.set_domain r worker) fprof;
      evaluate config inst assignments committed ev.Event.request
        ~now:ev.Event.time ~prices ~fork ~fprof
    in
    ((fork, B.ticks fork, fprof), run)
  in
  let settle (fork, ticks0, fprof) =
    (match (config.Config.prof, fprof) with
    | Some into, Some child -> Span.graft ~into ~at:(B.ticks global) child
    | _ -> ());
    B.join ~into:global fork;
    B.ticks fork - ticks0
  in
  Fun.protect
    ~finally:(fun () -> match pool with Some p -> Pool.shutdown p | None -> ())
    (fun () ->
      let process_batch batch =
        let snapshot_version = !version in
        (* Open one slice per arrival in the batch, sequentially, before
           any evaluation: every fork snapshots the same batch-start
           clock and state.  Departures carry no slice — they are
           merge-time state transitions. *)
        let snapshot = !committed
        and prices = Option.map Pricing.copy price_state in
        let tasks =
          Array.of_list
            (List.map
               (fun (ev : Event.t) ->
                 if ev.Event.kind = Event.Departure || B.remaining global <= 0.0
                 then (ev, None)
                 else (ev, Some (open_slice ~committed:snapshot ~prices ev)))
               batch)
        in
        let eval ~worker (_, slice) =
          Option.map (fun (_, run) -> run ~worker) slice
        in
        let proposals =
          match pool with
          | Some p when Array.length tasks > 1 -> Pool.run p eval tasks
          | _ -> Array.map (eval ~worker:0) tasks
        in
        (* Deterministic merge in event order: release whatever departed
           by each event's time, settle each slice, then commit or deny.
           A speculative result computed before an earlier commit or
           release changed the state is stale — discard it and
           re-evaluate against the current state on a fresh slice. *)
        Array.iteri
          (fun i ((ev : Event.t), slice) ->
            let req = ev.Event.request in
            let r = Instance.request inst req in
            process_due ev.Event.time;
            match ev.Event.kind with
            | Event.Departure ->
              (* Exogenous departure (cancellation): release if the
                 request still holds capacity; a departure for a denied
                 or already-departed request is a no-op. *)
              if config.Config.departures && assignments.(req).Solution.accepted
              then release ~time:ev.Event.time req
            | Event.Arrival ->
              let proposal, ticks, reevaluated =
                match slice with
                | None -> (dead_proposal (), 0, false)
                | Some (slice, _) ->
                  let spec_ticks = settle slice in
                  if snapshot_version = !version then
                    (Option.get proposals.(i), spec_ticks, false)
                  else begin
                    stats.Rstats.service_reevals <-
                      stats.Rstats.service_reevals + 1;
                    if B.remaining global <= 0.0 then
                      (dead_proposal (), spec_ticks, true)
                    else
                      let slice, run =
                        open_slice ~committed:!committed
                          ~prices:(Option.map Pricing.copy price_state) ev
                      in
                      let p = run ~worker:0 in
                      (p, spec_ticks + settle slice, true)
                  end
              in
              Rstats.merge ~into:stats proposal.p_stats;
              if proposal.p_greedy <> None then
                stats.Rstats.service_fallbacks <-
                  stats.Rstats.service_fallbacks + 1;
              let admitted = proposal.p_solution <> None in
              (match proposal.p_solution with
              | Some sol ->
                Array.blit sol.Solution.assignments 0 assignments 0 k;
                committed := !committed @ [ req ];
                admit_rung.(req) <- proposal.p_rung;
                if config.Config.departures then begin
                  release_at.(req) <- Some assignments.(req).Solution.t_end;
                  (* Migrations move schedules — their departures move
                     with them. *)
                  List.iter
                    (fun j ->
                      release_at.(j) <- Some assignments.(j).Solution.t_end)
                    proposal.p_moved
                end;
                incr version;
                reprice ();
                stats.Rstats.service_admitted <-
                  stats.Rstats.service_admitted + 1;
                Option.iter (fun f -> f req (current_solution ())) on_commit
              | None ->
                stats.Rstats.service_denied <- stats.Rstats.service_denied + 1);
              records :=
                {
                  request = req;
                  name = r.Request.name;
                  time = ev.Event.time;
                  event = Event.Arrival;
                  admitted;
                  rung = proposal.p_rung;
                  exact_status = proposal.p_exact;
                  greedy_status = proposal.p_greedy;
                  revenue =
                    (if admitted then
                       r.Request.duration *. Request.total_node_demand r
                     else 0.0);
                  priced_cost = proposal.p_priced_cost;
                  t_start =
                    (if admitted then assignments.(req).Solution.t_start
                     else nan);
                  t_end =
                    (if admitted then assignments.(req).Solution.t_end else nan);
                  ticks;
                  reevaluated;
                  moved = proposal.p_moved;
                }
                :: !records)
          tasks
      in
      (* Adaptive batching, the branch-and-bound treatment applied to the
         speculative stream: a batch whose speculation all held (no stale
         re-evaluation) doubles the next one, up to [8 × batch_size], so
         fork and worker wake-up overhead amortizes on accept-sparse
         streams; any staleness resets to the configured size, since
         commits invalidate the speculation of everything queued behind
         them.  The growth depends only on the re-evaluation history,
         which is deterministic, so decisions stay jobs-invariant. *)
      let rec drive cur = function
        | [] -> ()
        | remaining ->
          let batch, rest = take cur [] remaining in
          let stale0 = stats.Rstats.service_reevals in
          process_batch batch;
          let next =
            if stats.Rstats.service_reevals = stale0 then
              min (2 * cur) (8 * config.Config.batch_size)
            else config.Config.batch_size
          in
          drive next rest
      in
      drive config.Config.batch_size events);
  let records = Array.of_list (List.rev !records) in
  let arrivals_only =
    Array.of_list
      (List.filter
         (fun (r : record) -> r.event = Event.Arrival)
         (Array.to_list records))
  in
  let count p =
    Array.fold_left
      (fun n (r : record) -> if p r then n + 1 else n)
      0 arrivals_only
  in
  let n_arrivals = Array.length arrivals_only in
  let accepted = count (fun r -> r.admitted) in
  let revenue =
    Array.fold_left
      (fun acc (r : record) -> acc +. r.revenue)
      0.0 arrivals_only
  in
  let tick_values = Array.map (fun (r : record) -> r.ticks) arrivals_only in
  Array.sort compare tick_values;
  let runtime = B.elapsed global -. t0 in
  stats.Rstats.service_requests <- stats.Rstats.service_requests + n_arrivals;
  stats.Rstats.service_time <- stats.Rstats.service_time +. runtime;
  {
    records;
    solution = current_solution ();
    events = Array.length records;
    accepted;
    denied = n_arrivals - accepted;
    departed =
      Array.fold_left
        (fun n (r : record) -> if r.event = Event.Departure then n + 1 else n)
        0 records;
    migrations =
      Array.fold_left
        (fun n (r : record) -> n + List.length r.moved)
        0 records;
    acceptance_ratio =
      (if n_arrivals = 0 then 0.0
       else float_of_int accepted /. float_of_int n_arrivals);
    revenue;
    admitted_exact = count (fun r -> r.admitted && r.rung = Exact);
    admitted_rounded = count (fun r -> r.admitted && r.rung = Rounded);
    admitted_greedy = count (fun r -> r.admitted && r.rung = Greedy);
    admitted_migrated = count (fun r -> r.admitted && r.rung = Migrated);
    denied_exact = count (fun r -> (not r.admitted) && r.rung = Exact);
    denied_rounded = count (fun r -> (not r.admitted) && r.rung = Rounded);
    denied_greedy = count (fun r -> (not r.admitted) && r.rung = Greedy);
    denied_budget = count (fun r -> (not r.admitted) && r.rung = Budget);
    denied_priced = count (fun r -> (not r.admitted) && r.rung = Priced);
    ticks_p50 = percentile 0.50 tick_values;
    ticks_p99 = percentile 0.99 tick_values;
    total_ticks =
      Array.fold_left (fun acc (r : record) -> acc + r.ticks) 0 records;
    runtime;
    node_prices =
      (match price_state with Some p -> Pricing.node_prices p | None -> [||]);
    link_prices =
      (match price_state with Some p -> Pricing.link_prices p | None -> [||]);
    stats;
  }

(* ------------------------------------------------------------------ *)
(* Versioned JSON encoding                                            *)
(* ------------------------------------------------------------------ *)

let schema_version = 2

let status_opt_to_json = function
  | None -> Json.Null
  | Some s -> Json.Str (Solver.status_to_string s)

let record_to_json r =
  Json.Obj
    [
      ("schema_version", Json.Num (float_of_int schema_version));
      ("request", Json.Num (float_of_int r.request));
      ("name", Json.Str r.name);
      ("time", Json.of_float r.time);
      ("event", Json.Str (Event.kind_to_string r.event));
      ("admitted", Json.Bool r.admitted);
      ("rung", Json.Str (rung_to_string r.rung));
      ("exact_status", status_opt_to_json r.exact_status);
      ("greedy_status", status_opt_to_json r.greedy_status);
      ("revenue", Json.of_float r.revenue);
      ("priced_cost", Json.of_float r.priced_cost);
      ("t_start", Json.of_float r.t_start);
      ("t_end", Json.of_float r.t_end);
      ("ticks", Json.Num (float_of_int r.ticks));
      ("reevaluated", Json.Bool r.reevaluated);
      ( "moved",
        Json.List (List.map (fun i -> Json.Num (float_of_int i)) r.moved) );
    ]

open Json.Syntax

let record_of_json doc =
  let status_opt name =
    match Json.member name doc with
    | None | Some Json.Null -> Ok None
    | Some _ ->
      Result.map Option.some (Json.enum_field name Solver.status_of_string doc)
  in
  let* version = Json.int_field "schema_version" doc in
  if version <> 1 && version <> schema_version then
    Error (Printf.sprintf "unsupported schema_version %d" version)
  else
    let* request = Json.int_field "request" doc in
    let* name = Json.string_field "name" doc in
    (* Version 1 called the event time "arrival" — every record was
       one. *)
    let* time =
      Json.float_field (if version = 1 then "arrival" else "time") doc
    in
    let* event =
      if version = 1 then Ok Event.Arrival
      else Json.enum_field "event" Event.kind_of_string doc
    in
    let* admitted = Json.bool_field "admitted" doc in
    let* rung = Json.enum_field "rung" rung_of_string doc in
    let* exact_status = status_opt "exact_status" in
    let* greedy_status = status_opt "greedy_status" in
    let* revenue = Json.float_field "revenue" doc in
    let* priced_cost =
      match Json.member "priced_cost" doc with
      | None -> Ok nan
      | Some v -> Json.decode_float v
    in
    let* t_start = Json.float_field "t_start" doc in
    let* t_end = Json.float_field "t_end" doc in
    let* ticks = Json.int_field "ticks" doc in
    let* reevaluated = Json.bool_field "reevaluated" doc in
    let* moved =
      match Json.member "moved" doc with
      | None -> Ok []
      | Some (Json.List l) ->
        List.fold_left
          (fun acc v ->
            let* acc = acc in
            match v with
            | Json.Num n -> Ok (int_of_float n :: acc)
            | _ -> Error "moved: expected integers")
          (Ok []) l
        |> Result.map List.rev
      | Some _ -> Error "moved: expected a list"
    in
    Ok
      {
        request;
        name;
        time;
        event;
        admitted;
        rung;
        exact_status;
        greedy_status;
        revenue;
        priced_cost;
        t_start;
        t_end;
        ticks;
        reevaluated;
        moved;
      }

let summary_to_json s =
  let i n = Json.Num (float_of_int n) in
  let floats a =
    Json.List (Array.to_list (Array.map Json.of_float a))
  in
  Json.Obj
    [
      ("schema", Json.Str "tvnep-service/2");
      ("schema_version", i schema_version);
      ("events", i s.events);
      ("requests", i (s.accepted + s.denied));
      ("accepted", i s.accepted);
      ("denied", i s.denied);
      ("departed", i s.departed);
      ("migrations", i s.migrations);
      ("acceptance_ratio", Json.of_float s.acceptance_ratio);
      ("revenue", Json.of_float s.revenue);
      ("admitted_exact", i s.admitted_exact);
      ("admitted_rounded", i s.admitted_rounded);
      ("admitted_greedy", i s.admitted_greedy);
      ("admitted_migrated", i s.admitted_migrated);
      ("denied_exact", i s.denied_exact);
      ("denied_rounded", i s.denied_rounded);
      ("denied_greedy", i s.denied_greedy);
      ("denied_budget", i s.denied_budget);
      ("denied_priced", i s.denied_priced);
      ("ticks_p50", i s.ticks_p50);
      ("ticks_p99", i s.ticks_p99);
      ("total_ticks", i s.total_ticks);
      ("runtime", Json.of_float s.runtime);
      ("node_prices", floats s.node_prices);
      ("link_prices", floats s.link_prices);
      ("records", Json.List (Array.to_list (Array.map record_to_json s.records)));
    ]
