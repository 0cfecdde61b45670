(* Greedy cΣ_A^G: validity, dominance by the exact optimum, exactness on
   easy instances, and the earliest-start behaviour of objective (21). *)

let quick_opts time_limit =
  Tvnep.Solver.Options.make
    ~mip:{ Mip.Branch_bound.default_params with time_limit } ()

let scenario ?(k = 3) ?(flex = 1.0) seed =
  let rng = Workload.Rng.create seed in
  Tvnep.Scenario.generate rng
    { Tvnep.Scenario.scaled with num_requests = k; flexibility = flex }

let unit_tests =
  [
    Alcotest.test_case "requires fixed mappings" `Quick (fun () ->
        let g = Graphs.Generators.grid ~rows:1 ~cols:2 in
        let substrate = Tvnep.Substrate.uniform g ~node_cap:1.0 ~link_cap:1.0 in
        let rg = Graphs.Generators.star ~leaves:1 ~orientation:Graphs.Generators.From_center in
        let r =
          Tvnep.Request.make ~name:"r" ~graph:rg ~node_demand:[| 0.5; 0.5 |]
            ~link_demand:[| 0.5 |] ~duration:1.0 ~start_min:0.0 ~end_max:1.0
        in
        let inst =
          Tvnep.Instance.make ~substrate ~requests:[| r |] ~horizon:1.0 ()
        in
        Alcotest.check_raises "raise"
          (Invalid_argument "Greedy.run: fixed node mappings required")
          (fun () -> ignore (Tvnep.Greedy.run inst)));
    Alcotest.test_case "accepts everything on an uncontended instance" `Quick
      (fun () ->
        let g = Graphs.Generators.grid ~rows:2 ~cols:2 in
        let substrate = Tvnep.Substrate.uniform g ~node_cap:100.0 ~link_cap:100.0 in
        let rg = Graphs.Generators.star ~leaves:1 ~orientation:Graphs.Generators.From_center in
        let mk name start =
          Tvnep.Request.make ~name ~graph:rg ~node_demand:[| 1.0; 1.0 |]
            ~link_demand:[| 1.0 |] ~duration:1.0 ~start_min:start
            ~end_max:(start +. 2.0)
        in
        let inst =
          Tvnep.Instance.make
            ~node_mappings:[| [| 0; 1 |]; [| 2; 3 |]; [| 0; 2 |] |]
            ~substrate
            ~requests:[| mk "a" 0.0; mk "b" 0.3; mk "c" 0.6 |]
            ~horizon:3.0 ()
        in
        let sol, stats = Tvnep.Greedy.run inst in
        Alcotest.(check int) "all accepted" 3 (Tvnep.Solution.num_accepted sol);
        Alcotest.(check bool) "valid" true (Tvnep.Validator.is_feasible inst sol);
        (* objective (21): as early as possible -> each at its window open *)
        Array.iteri
          (fun i (a : Tvnep.Solution.assignment) ->
            Alcotest.(check (float 1e-6)) "earliest start"
              (Tvnep.Instance.request inst i).Tvnep.Request.start_min
              a.Tvnep.Solution.t_start)
          sol.Tvnep.Solution.assignments;
        Alcotest.(check bool) "one LP per request" true (stats.Tvnep.Greedy.lp_solves >= 3));
    Alcotest.test_case "exploits flexibility to fit a second request" `Quick
      (fun () ->
        (* Link bottleneck: requests must serialize; flexibility allows it. *)
        let g = Graphs.Digraph.create 2 in
        ignore (Graphs.Digraph.add_edge g ~src:0 ~dst:1);
        let substrate = Tvnep.Substrate.uniform g ~node_cap:10.0 ~link_cap:1.0 in
        let rg = Graphs.Generators.star ~leaves:1 ~orientation:Graphs.Generators.From_center in
        let mk name flex =
          Tvnep.Request.make ~name ~graph:rg ~node_demand:[| 0.1; 0.1 |]
            ~link_demand:[| 0.9 |] ~duration:1.0 ~start_min:0.0
            ~end_max:(1.0 +. flex)
        in
        let mappings = [| [| 0; 1 |]; [| 0; 1 |] |] in
        let tight =
          Tvnep.Instance.make ~node_mappings:mappings ~substrate
            ~requests:[| mk "a" 0.0; mk "b" 0.0 |]
            ~horizon:4.0 ()
        in
        let sol_tight, _ = Tvnep.Greedy.run tight in
        Alcotest.(check int) "no flexibility: one fits" 1
          (Tvnep.Solution.num_accepted sol_tight);
        let flexible =
          Tvnep.Instance.make ~node_mappings:mappings ~substrate
            ~requests:[| mk "a" 1.0; mk "b" 1.0 |]
            ~horizon:4.0 ()
        in
        let sol_flex, _ = Tvnep.Greedy.run flexible in
        Alcotest.(check int) "flexibility: both fit" 2
          (Tvnep.Solution.num_accepted sol_flex);
        Alcotest.(check bool) "valid" true
          (Tvnep.Validator.is_feasible flexible sol_flex));
  ]

let properties =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"greedy solutions are always feasible" ~count:15
         QCheck2.Gen.(int_bound 100_000)
         (fun seed ->
           let inst = scenario ~k:5 ~flex:2.0 (Int64.of_int (seed + 7)) in
           let sol, _ = Tvnep.Greedy.run inst in
           Tvnep.Validator.is_feasible inst sol));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"greedy never beats the exact optimum" ~count:6
         QCheck2.Gen.(int_bound 10_000)
         (fun seed ->
           let inst = scenario ~k:3 ~flex:1.5 (Int64.of_int (seed + 13)) in
           let sol, _ = Tvnep.Greedy.run inst in
           let exact = Tvnep.Solver.run inst (quick_opts 90.0) in
           match exact.Tvnep.Solver.objective with
           | Some opt when exact.Tvnep.Solver.status = Tvnep.Solver.Optimal ->
             sol.Tvnep.Solution.objective <= opt +. 1e-5
           | _ -> true));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"greedy objective matches recomputed revenue" ~count:15
         QCheck2.Gen.(int_bound 100_000)
         (fun seed ->
           let inst = scenario ~k:4 ~flex:1.0 (Int64.of_int (seed + 19)) in
           let sol, _ = Tvnep.Greedy.run inst in
           Float.abs
             (sol.Tvnep.Solution.objective
             -. Tvnep.Solution.access_control_value inst sol)
           < 1e-9));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"rejected requests still carry window-respecting times"
         ~count:15
         QCheck2.Gen.(int_bound 100_000)
         (fun seed ->
           (* Definition 2.1 fixes start/end times for every request,
              accepted or not. *)
           let inst = scenario ~k:5 ~flex:0.5 (Int64.of_int (seed + 29)) in
           let sol, _ = Tvnep.Greedy.run inst in
           Array.for_all
             (fun i ->
               let a = sol.Tvnep.Solution.assignments.(i) in
               let r = Tvnep.Instance.request inst i in
               a.Tvnep.Solution.t_start >= r.Tvnep.Request.start_min -. 1e-9
               && a.Tvnep.Solution.t_end <= r.Tvnep.Request.end_max +. 1e-9
               && Float.abs
                    (a.Tvnep.Solution.t_end -. a.Tvnep.Solution.t_start
                   -. r.Tvnep.Request.duration)
                  < 1e-9)
             (Array.init (Tvnep.Instance.num_requests inst) (fun i -> i))));
  ]

(* The warm-started chain against the cold reference chain: same accepted
   requests at the same times, both validator-clean.  Half of the
   instances pre-place the first two requests the reference accepted. *)
let equivalence_tests =
  let check_instance ~preplace inst =
    let preplaced =
      if not preplace then []
      else
        fst (Greedy_reference.run inst)
        |> List.filteri (fun i _ -> i < 2)
        |> List.map (fun (req, s, _) -> (req, s))
    in
    let ref_placed, ref_sol = Greedy_reference.run ~preplaced inst in
    let sol, _ = Tvnep.Greedy.run ~preplaced inst in
    let times (s : Tvnep.Solution.t) =
      Array.to_list s.Tvnep.Solution.assignments
      |> List.mapi (fun i (a : Tvnep.Solution.assignment) ->
             (i, a.Tvnep.Solution.accepted, a.Tvnep.Solution.t_start,
              a.Tvnep.Solution.t_end))
      |> List.filter (fun (_, acc, _, _) -> acc)
    in
    Alcotest.(check (list (pair int (pair (float 0.0) (float 0.0)))))
      "accepted set and times"
      (List.sort compare
         (List.map (fun (req, s, e) -> (req, (s, e))) ref_placed))
      (List.map (fun (i, _, s, e) -> (i, (s, e))) (times sol));
    Alcotest.(check int) "reference agrees with its own solution"
      (List.length ref_placed) (Tvnep.Solution.num_accepted ref_sol);
    Alcotest.(check bool) "warm chain validator-clean" true
      (Tvnep.Validator.is_feasible inst sol);
    Alcotest.(check bool) "cold chain validator-clean" true
      (Tvnep.Validator.is_feasible inst ref_sol)
  in
  let paper_grid k seed =
    let rng = Workload.Rng.create seed in
    Tvnep.Scenario.generate rng
      { Tvnep.Scenario.paper with num_requests = k; flexibility = 1.0 }
  in
  [
    Alcotest.test_case "warm chain decides like the cold chain (scaled)"
      `Quick (fun () ->
        for seed = 1 to 30 do
          let inst = scenario ~k:7 ~flex:1.5 (Int64.of_int (1000 + seed)) in
          check_instance ~preplace:(seed mod 2 = 0) inst
        done);
    Alcotest.test_case "warm chain decides like the cold chain (paper grid)"
      `Quick (fun () ->
        for seed = 1 to 20 do
          let inst = paper_grid 8 (Int64.of_int (2000 + seed)) in
          check_instance ~preplace:(seed mod 2 = 0) inst
        done);
    Alcotest.test_case "every LP after the first warm-starts" `Quick
      (fun () ->
        let g = Graphs.Generators.grid ~rows:2 ~cols:2 in
        let substrate =
          Tvnep.Substrate.uniform g ~node_cap:100.0 ~link_cap:100.0
        in
        let rg =
          Graphs.Generators.star ~leaves:1
            ~orientation:Graphs.Generators.From_center
        in
        let mk name start =
          Tvnep.Request.make ~name ~graph:rg ~node_demand:[| 1.0; 1.0 |]
            ~link_demand:[| 1.0 |] ~duration:1.0 ~start_min:start
            ~end_max:(start +. 2.0)
        in
        let inst n =
          Tvnep.Instance.make
            ~node_mappings:(Array.sub [| [| 0; 1 |]; [| 2; 3 |]; [| 0; 3 |] |] 0 n)
            ~substrate
            ~requests:(Array.sub [| mk "a" 0.0; mk "b" 0.3; mk "c" 0.6 |] 0 n)
            ~horizon:3.0 ()
        in
        let counters inst =
          let stats = Runtime.Stats.create () in
          let sol, gstats = Tvnep.Greedy.run ~stats inst in
          (* A greedy-only run solves exactly the LPs the greedy counts. *)
          Alcotest.(check int) "greedy LPs = simplex solves"
            stats.Runtime.Stats.lp_solves stats.Runtime.Stats.greedy_lp_solves;
          Alcotest.(check int) "Greedy.stats agrees"
            stats.Runtime.Stats.greedy_lp_solves gstats.Tvnep.Greedy.lp_solves;
          ( Tvnep.Solution.num_accepted sol,
            stats.Runtime.Stats.greedy_candidates,
            stats.Runtime.Stats.greedy_lp_solves,
            stats.Runtime.Stats.greedy_warm_starts )
        in
        let _, _, lps, warm = counters (inst 3) in
        Alcotest.(check int) "three LPs" 3 lps;
        Alcotest.(check int) "warm starts = LPs - 1" (lps - 1) warm;
        let _, _, lps, warm = counters (inst 1) in
        Alcotest.(check (pair int int)) "single-LP greedy starts cold" (1, 0)
          (lps, warm);
        (* Node capacity 1 leaves room for one request on node 0 at a
           time: b's first candidate (start 0, beside a) fails the
           node-capacity pre-check and must cost no LP; b then fits at
           a's end. *)
        let tight =
          Tvnep.Instance.make
            ~node_mappings:[| [| 0; 1 |]; [| 0; 3 |] |]
            ~substrate:
              (Tvnep.Substrate.uniform g ~node_cap:1.0 ~link_cap:100.0)
            ~requests:[| mk "a" 0.0; mk "b" 0.0 |]
            ~horizon:3.0 ()
        in
        let accepted, candidates, lps, warm = counters tight in
        Alcotest.(check int) "both admitted" 2 accepted;
        Alcotest.(check int) "three candidates tried" 3 candidates;
        Alcotest.(check int) "two LPs solved" 2 lps;
        Alcotest.(check int) "the second warm-starts" 1 warm);
  ]

let suite =
  [ ("tvnep.greedy", unit_tests @ properties @ equivalence_tests) ]
