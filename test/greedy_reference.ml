(* Reference greedy cΣ_A^G: the plain cold chain.  Every candidate start
   solves a fresh feasibility LP, built through the public Lp API and
   solved from scratch by two-phase simplex, over the flows of all
   accepted requests plus the candidate.  Tvnep.Greedy.run warm-starts
   that chain from the last accepted LP's basis; LP feasibility does not
   depend on the starting basis, so it must accept the same requests at
   the same times.  This file is the oracle the equivalence test compares
   to. *)

open Tvnep

(* Window opening, plus every accepted start/end and every such point
   shifted back by the duration, clamped into the start window. *)
let candidates inst req accepted =
  let r = Instance.request inst req in
  let d = r.Request.duration in
  let lo = r.Request.start_min and hi = Request.latest_start r in
  let points =
    List.fold_left
      (fun acc (_, s, e) -> s :: e :: (s -. d) :: (e -. d) :: acc)
      [ lo ] accepted
  in
  points
  |> List.filter (fun s -> s >= lo -. 1e-12 && s <= hi +. 1e-12)
  |> List.map (fun s -> Float.min hi (Float.max lo s))
  |> List.sort_uniq compare

let active s e lo hi = s < hi -. 1e-12 && lo < e -. 1e-12

let mapping inst req = Option.get (Instance.node_mapping inst req)

(* The cold LP over [placed] = (req, start, end) list; [Some flows] (per
   request, per virtual link) when feasible. *)
let feasible inst placed =
  let sub = inst.Instance.substrate in
  let g = Substrate.graph sub in
  let n_nodes = Substrate.num_nodes sub and n_links = Substrate.num_links sub in
  let points =
    List.sort_uniq compare (List.concat_map (fun (_, s, e) -> [ s; e ]) placed)
  in
  let rec gaps = function a :: (b :: _ as t) -> (a, b) :: gaps t | _ -> [] in
  let states =
    List.map
      (fun (lo, hi) ->
        List.filter (fun (_, s, e) -> active s e lo hi) placed
        |> List.map (fun (req, _, _) -> req))
      (gaps points)
  in
  let nodes_fit reqs =
    let load = Array.make n_nodes 0.0 in
    List.iter
      (fun req ->
        let r = Instance.request inst req in
        Array.iteri
          (fun v host -> load.(host) <- load.(host) +. r.Request.node_demand.(v))
          (mapping inst req))
      reqs;
    Array.for_all Fun.id
      (Array.mapi (fun s l -> l <= Substrate.node_cap sub s +. 1e-7) load)
  in
  if not (List.for_all nodes_fit states) then None
  else begin
    let m = Lp.Model.create () in
    let flow = Hashtbl.create 16 in
    List.iter
      (fun (req, _, _) ->
        let r = Instance.request inst req in
        let x =
          Array.init (Request.num_vlinks r) (fun lv ->
              Array.init n_links (fun ls ->
                  Lp.Model.add_var m ~lb:0.0 ~ub:1.0
                    (Printf.sprintf "f%d.%d.%d" req lv ls)))
        in
        Hashtbl.replace flow req x;
        let host = mapping inst req in
        List.iter
          (fun (vl : Graphs.Digraph.edge) ->
            for s = 0 to n_nodes - 1 do
              let terms sign edges =
                List.map
                  (fun (e : Graphs.Digraph.edge) ->
                    ((x.(vl.id).(e.id) : Lp.Model.var :> int), sign))
                  edges
              in
              let e =
                Lp.Expr.of_terms
                  (terms 1.0 (Graphs.Digraph.out_edges g s)
                  @ terms (-1.0) (Graphs.Digraph.in_edges g s))
              in
              let supply =
                (if host.(vl.src) = s then 1.0 else 0.0)
                -. if host.(vl.dst) = s then 1.0 else 0.0
              in
              Lp.Model.add_eq m e supply
            done)
          (Graphs.Digraph.edges r.Request.graph))
      placed;
    List.iter
      (fun reqs ->
        for ls = 0 to n_links - 1 do
          let terms =
            List.concat_map
              (fun req ->
                let r = Instance.request inst req in
                let x = Hashtbl.find flow req in
                List.init (Request.num_vlinks r) (fun lv ->
                    ((x.(lv).(ls) : Lp.Model.var :> int),
                     r.Request.link_demand.(lv))))
              reqs
          in
          if terms <> [] then
            Lp.Model.add_le m (Lp.Expr.of_terms terms) (Substrate.link_cap sub ls)
        done)
      states;
    let cost =
      Hashtbl.fold
        (fun _ x acc ->
          Array.fold_left
            (Array.fold_left (fun acc (v : Lp.Model.var) ->
                 ((v :> int), 1.0) :: acc))
            acc x)
        flow []
    in
    Lp.Model.set_objective m Lp.Model.Minimize (Lp.Expr.of_terms cost);
    let res = Lp.Simplex.solve_model m in
    match res.Lp.Simplex.status with
    | Lp.Simplex.Optimal ->
      Some
        (fun req ->
          Array.map
            (fun row ->
              Array.to_list row
              |> List.mapi (fun ls (v : Lp.Model.var) ->
                     (ls, res.Lp.Simplex.x.((v :> int))))
              |> List.filter (fun (_, f) -> f > 1e-9))
            (Hashtbl.find flow req))
    | _ -> None
  end

(* The accepted (req, start, end) triples in acceptance order, preplaced
   first, and the solution with the final LP's flows. *)
let run ?(preplaced = []) inst =
  let k = Instance.num_requests inst in
  let dur req = (Instance.request inst req).Request.duration in
  let placed0 = List.map (fun (req, s) -> (req, s, s +. dur req)) preplaced in
  let flows0 =
    if placed0 = [] then None
    else
      match feasible inst placed0 with
      | Some f -> Some f
      | None -> invalid_arg "Greedy_reference.run: preplacements infeasible"
  in
  let order =
    List.init k Fun.id
    |> List.filter (fun req -> not (List.mem_assoc req preplaced))
    |> List.stable_sort (fun a b ->
           compare (Instance.request inst a).Request.start_min
             (Instance.request inst b).Request.start_min)
  in
  let placed, flows =
    List.fold_left
      (fun (placed, flows) req ->
        let rec scan = function
          | [] -> (placed, flows)
          | s :: rest -> (
            let cand = (req, s, s +. dur req) in
            match feasible inst (cand :: placed) with
            | Some f -> (placed @ [ cand ], Some f)
            | None -> scan rest)
        in
        scan (candidates inst req placed))
      (placed0, flows0) order
  in
  let assignments =
    Array.init k (fun req -> Solution.rejected (Instance.request inst req))
  in
  List.iter
    (fun (req, s, e) ->
      assignments.(req) <-
        {
          Solution.accepted = true;
          node_map = mapping inst req;
          link_flows = (Option.get flows) req;
          t_start = s;
          t_end = e;
        })
    placed;
  let sol = { Solution.assignments; objective = 0.0 } in
  (placed, { sol with objective = Solution.access_control_value inst sol })
