type stats = { lp_solves : int; candidates_tried : int; runtime : float }

module Budget = Runtime.Budget
module Rstats = Runtime.Stats

type accepted = {
  a_req : int;
  a_start : float;
  a_end : float;
  mutable a_flows : (int * float) list array;  (* per virtual link *)
}

(* Candidate start times for [req]: window opening plus the breakpoints at
   which the overlap pattern with accepted intervals changes (see mli). *)
let candidate_starts inst req accepted =
  let r = Instance.request inst req in
  let d = r.Request.duration in
  let lo = r.Request.start_min and hi = Request.latest_start r in
  let raw =
    lo
    :: List.concat_map
         (fun a -> [ a.a_start; a.a_end; a.a_start -. d; a.a_end -. d ])
         accepted
  in
  List.sort_uniq compare
    (List.filter (fun s -> s >= lo -. 1e-12 && s <= hi +. 1e-12) raw)
  |> List.map (fun s -> Float.max lo (Float.min hi s))
  |> List.sort_uniq compare

(* Open-interval overlap of (s1,e1) and (s2,e2). *)
let overlaps s1 e1 s2 e2 = s1 < e2 -. 1e-12 && s2 < e1 -. 1e-12

(* Interval breakpoints of all intervals passed, sorted; the states of the
   fixed schedule are the gaps between consecutive breakpoints. *)
let states_of intervals =
  let pts =
    List.concat_map (fun (s, e) -> [ s; e ]) intervals
    |> List.sort_uniq compare
  in
  let rec pair = function
    | a :: (b :: _ as rest) -> (a, b) :: pair rest
    | [ _ ] | [] -> []
  in
  pair pts

(* Constant node loads under fixed mappings: reject a candidate without an
   LP when some node would overflow. *)
let node_caps_ok inst active_sets =
  let sub = inst.Instance.substrate in
  let n_nodes = Substrate.num_nodes sub in
  List.for_all
    (fun active ->
      let load = Array.make n_nodes 0.0 in
      List.iter
        (fun req ->
          let r = Instance.request inst req in
          match Instance.node_mapping inst req with
          | Some mapping ->
            Array.iteri
              (fun v host ->
                load.(host) <- load.(host) +. r.Request.node_demand.(v))
              mapping
          | None -> assert false)
        active;
      let ok = ref true in
      for s = 0 to n_nodes - 1 do
        if load.(s) > Substrate.node_cap sub s +. 1e-7 then ok := false
      done;
      !ok)
    active_sets

type row_key =
  | Conserve of int * int * int  (* req, vlink, node *)
  | Capacity of (float * float) * int  (* state, slink *)

(* The optimal basis of the last accepted LP, keyed by what each column
   and row means rather than by its index, so that the next candidate's LP
   (the same participants plus one request, over a refinement of the same
   states) can inherit it. *)
type keyed_basis = {
  col_stat : (int * int * int, Lp.Simplex.vstat) Hashtbl.t;
      (* flow (req, vlink, slink) -> status *)
  row_stat : (row_key, Lp.Simplex.vstat) Hashtbl.t;  (* logical status *)
  old_states : (float * float) list;
}

let key_basis (b : Lp.Simplex.basis) ~col_keys ~row_keys states =
  let n_struct = Array.length col_keys in
  let col_stat = Hashtbl.create n_struct in
  Array.iteri (fun j key -> Hashtbl.replace col_stat key b.stat.(j)) col_keys;
  let row_stat = Hashtbl.create (Array.length row_keys) in
  Array.iteri
    (fun i key -> Hashtbl.replace row_stat key b.stat.(n_struct + i))
    row_keys;
  { col_stat; row_stat; old_states = states }

(* Maps [kb] onto an LP with the given column and row keys: old flows keep
   their status, new flows start at their lower bound; old conservation
   rows keep their logical's status, new ones get a basic logical; a
   capacity row whose state lies inside an old state inherits that old
   row's status once, every other capacity row gets a basic logical.  The
   result is block triangular over the old basis (nonsingular), and dual
   feasible: the new rows carry zero duals, the old duals are unchanged,
   and a new flow's reduced cost is 1 minus demand-weighted capacity
   duals, which are <= 0.  [None] unless exactly one column per row ends
   up basic. *)
let map_basis kb ~col_keys ~row_keys =
  let n_struct = Array.length col_keys and m = Array.length row_keys in
  let stat =
    Array.append
      (Array.map
         (fun key ->
           Option.value (Hashtbl.find_opt kb.col_stat key)
             ~default:Lp.Simplex.At_lower)
         col_keys)
      (Array.make m Lp.Simplex.Basic)
  in
  let inherited = Hashtbl.create 64 in
  Array.iteri
    (fun i key ->
      let old_key =
        match key with
        | Conserve _ -> Some key
        | Capacity ((lo, hi), ls) -> (
          let inside (olo, ohi) = olo <= lo && hi <= ohi in
          match List.find_opt inside kb.old_states with
          | Some old_state
            when not (Hashtbl.mem inherited (Capacity (old_state, ls))) ->
            Some (Capacity (old_state, ls))
          | Some _ | None -> None)
      in
      match old_key with
      | Some k when Hashtbl.mem kb.row_stat k ->
        stat.(n_struct + i) <- Hashtbl.find kb.row_stat k;
        Hashtbl.replace inherited k ()
      | Some _ | None -> ())
    row_keys;
  let basic =
    List.filter
      (fun j -> stat.(j) = Lp.Simplex.Basic)
      (List.init (n_struct + m) Fun.id)
  in
  if List.length basic = m then
    Some { Lp.Simplex.basic = Array.of_list basic; stat }
  else None

(* One feasibility LP: flows for all participating requests, per-state link
   capacities, built and counted only when the node capacities admit the
   participants.  Returns the flows per request on success, with the
   optimal basis keyed for the next LP.  [?warm] is the keyed basis of the
   last accepted LP; the solve starts from its mapping when that is
   complete. *)
let try_schedule ?lp_params ?budget ?stats ?prof ?warm inst participants =
  (* participants: (req, start, end) with fixed times; all embedded. *)
  let sub = inst.Instance.substrate in
  let sgraph = Substrate.graph sub in
  let n_sub = Substrate.num_nodes sub in
  let n_slinks = Substrate.num_links sub in
  let intervals = List.map (fun (_, s, e) -> (s, e)) participants in
  let states = states_of intervals in
  let active_sets =
    List.map
      (fun (lo, hi) ->
        List.filter_map
          (fun (req, s, e) -> if overlaps s e lo hi then Some req else None)
          participants)
      states
  in
  if not (node_caps_ok inst active_sets) then None
  else begin
    Option.iter
      (fun st -> st.Rstats.greedy_lp_solves <- st.Rstats.greedy_lp_solves + 1)
      stats;
    let model = Lp.Model.create ~name:"greedy-lp" () in
    let col_keys = ref [] and row_keys = ref [] in
    (* Flow variables and conservation per participating request. *)
    let flows = Hashtbl.create 16 in
    List.iter
      (fun (req, _, _) ->
        let r = Instance.request inst req in
        let mapping =
          match Instance.node_mapping inst req with
          | Some m -> m
          | None -> assert false
        in
        let x_e =
          Array.init (Request.num_vlinks r) (fun lv ->
              Array.init n_slinks (fun ls ->
                  col_keys := (req, lv, ls) :: !col_keys;
                  Lp.Model.add_var model ~lb:0.0 ~ub:1.0
                    (Printf.sprintf "f_%d_%d_%d" req lv ls)))
        in
        Hashtbl.replace flows req x_e;
        List.iter
          (fun (lv : Graphs.Digraph.edge) ->
            for s = 0 to n_sub - 1 do
              let sum_over edges =
                Lp.Expr.sum
                  (List.map
                     (fun (e : Graphs.Digraph.edge) ->
                       Lp.Expr.var ((x_e.(lv.id).(e.id) : Lp.Model.var) :> int))
                     edges)
              in
              let balance =
                Lp.Expr.sub
                  (sum_over (Graphs.Digraph.out_edges sgraph s))
                  (sum_over (Graphs.Digraph.in_edges sgraph s))
              in
              let rhs =
                (if mapping.(lv.src) = s then 1.0 else 0.0)
                -. (if mapping.(lv.dst) = s then 1.0 else 0.0)
              in
              row_keys := Conserve (req, lv.id, s) :: !row_keys;
              Lp.Model.add_eq model balance rhs
            done)
          (Graphs.Digraph.edges r.Request.graph))
      participants;
    (* Per-state link capacity rows. *)
    List.iter2
      (fun state active ->
        for ls = 0 to n_slinks - 1 do
          let load =
            Lp.Expr.sum
              (List.concat_map
                 (fun req ->
                   let r = Instance.request inst req in
                   let x_e = Hashtbl.find flows req in
                   List.init (Request.num_vlinks r) (fun lv ->
                       Lp.Expr.var
                         ~coeff:r.Request.link_demand.(lv)
                         ((x_e.(lv).(ls) : Lp.Model.var) :> int)))
                 active)
          in
          if Lp.Expr.num_terms load > 0 then begin
            row_keys := Capacity (state, ls) :: !row_keys;
            Lp.Model.add_le model load (Substrate.link_cap sub ls)
          end
        done)
      states active_sets;
    (* Minimize total flow: short, clean routings. *)
    let total =
      Hashtbl.fold
        (fun _ x_e acc ->
          Array.fold_left
            (fun acc row ->
              Array.fold_left
                (fun acc (v : Lp.Model.var) ->
                  Lp.Expr.add_term acc (v :> int) 1.0)
                acc row)
            acc x_e)
        flows Lp.Expr.zero
    in
    Lp.Model.set_objective model Lp.Model.Minimize total;
    let col_keys = Array.of_list (List.rev !col_keys)
    and row_keys = Array.of_list (List.rev !row_keys) in
    let sf = Lp.Std_form.of_model model in
    let solve warm =
      Lp.Simplex.solve ?params:lp_params ?budget ?stats ?prof ?warm sf
    in
    let result =
      match Option.bind warm (fun kb -> map_basis kb ~col_keys ~row_keys) with
      | None -> solve None
      | Some basis -> (
        Option.iter
          (fun st ->
            st.Rstats.greedy_warm_starts <- st.Rstats.greedy_warm_starts + 1)
          stats;
        match solve (Some basis) with
        | { Lp.Simplex.status = Lp.Simplex.Numerical_failure; _ } ->
          (* Feasibility does not depend on the start; a start the dual
             simplex could not repair gets the cold chain's answer. *)
          solve None
        | r -> r)
    in
    match result.Lp.Simplex.status with
    | Lp.Simplex.Optimal ->
      let extract req =
        let r = Instance.request inst req in
        let x_e = Hashtbl.find flows req in
        Array.init (Request.num_vlinks r) (fun lv ->
            let acc = ref [] in
            Array.iteri
              (fun ls (v : Lp.Model.var) ->
                let value = result.Lp.Simplex.x.((v :> int)) in
                if value > 1e-9 then acc := (ls, value) :: !acc)
              x_e.(lv);
            List.rev !acc)
      in
      let keyed =
        Option.map
          (fun b -> key_basis b ~col_keys ~row_keys states)
          result.Lp.Simplex.final_basis
      in
      Some (extract, keyed)
    | Lp.Simplex.Infeasible -> None
    | Lp.Simplex.Unbounded | Lp.Simplex.Iter_limit | Lp.Simplex.Time_limit
    | Lp.Simplex.Numerical_failure ->
      None
  end

let run ?lp_params ?budget ?stats ?prof ?(preplaced = []) inst =
  if not (Instance.has_fixed_mappings inst) then
    invalid_arg "Greedy.run: fixed node mappings required";
  let budget = match budget with Some b -> b | None -> Budget.create () in
  let rstats = match stats with Some s -> s | None -> Rstats.create () in
  let t0 = Budget.elapsed budget in
  let k = Instance.num_requests inst in
  let preset = List.map fst preplaced in
  let order =
    List.sort
      (fun a b ->
        compare
          ((Instance.request inst a).Request.start_min, a)
          ((Instance.request inst b).Request.start_min, b))
      (List.filter (fun i -> not (List.mem i preset)) (List.init k (fun i -> i)))
  in
  (* [try_schedule] counts the LPs it builds and solves; a candidate the
     node-capacity pre-check rejects costs none. *)
  let lp_solves0 = rstats.Rstats.greedy_lp_solves in
  let candidates_tried = ref 0 in
  let accepted : accepted list ref = ref [] in
  (* Optimal basis of the last accepted LP: every later candidate LP
     warm-starts from it. *)
  let last_basis = ref None in
  (* Install the pre-placed requests (validated, flows solved jointly). *)
  if preplaced <> [] then begin
    List.iter
      (fun (req, start) ->
        if req < 0 || req >= k then
          invalid_arg "Greedy.run: preplaced request out of range";
        let r = Instance.request inst req in
        if
          start < r.Request.start_min -. 1e-9
          || start +. r.Request.duration > r.Request.end_max +. 1e-9
        then
          invalid_arg
            (Printf.sprintf "Greedy.run: preplacement of %s outside window"
               r.Request.name))
      preplaced;
    let participants =
      List.map
        (fun (req, start) ->
          (req, start, start +. (Instance.request inst req).Request.duration))
        preplaced
    in
    match
      try_schedule ?lp_params ~budget ~stats:rstats ?prof inst participants
    with
    | Some (flows_of, keyed) ->
      last_basis := keyed;
      accepted :=
        List.map
          (fun (req, start, stop) ->
            { a_req = req; a_start = start; a_end = stop;
              a_flows = flows_of req })
          participants
    | None -> invalid_arg "Greedy.run: preplacements jointly infeasible"
  end;
  let assignments =
    Array.init k (fun req -> Solution.rejected (Instance.request inst req))
  in
  List.iter
    (fun req ->
      let r = Instance.request inst req in
      let d = r.Request.duration in
      let candidates = candidate_starts inst req !accepted in
      let placed = ref false in
      List.iter
        (fun s ->
          if not !placed then begin
            incr candidates_tried;
            rstats.Rstats.greedy_candidates <-
              rstats.Rstats.greedy_candidates + 1;
            let participants =
              (req, s, s +. d)
              :: List.map (fun a -> (a.a_req, a.a_start, a.a_end)) !accepted
            in
            match
              try_schedule ?lp_params ~budget ~stats:rstats ?prof
                ?warm:!last_basis inst participants
            with
            | Some (flows_of, keyed) ->
              placed := true;
              last_basis := keyed;
              (* Link allocations of previously accepted requests are
                 recomputed (the paper does the same every iteration). *)
              List.iter (fun a -> a.a_flows <- flows_of a.a_req) !accepted;
              accepted :=
                { a_req = req; a_start = s; a_end = s +. d; a_flows = flows_of req }
                :: !accepted
            | None -> ()
          end)
        candidates)
    order;
  List.iter
    (fun a ->
      let r = Instance.request inst a.a_req in
      ignore r;
      let mapping =
        match Instance.node_mapping inst a.a_req with
        | Some m -> m
        | None -> assert false
      in
      assignments.(a.a_req) <-
        {
          Solution.accepted = true;
          node_map = mapping;
          link_flows = a.a_flows;
          t_start = a.a_start;
          t_end = a.a_end;
        })
    !accepted;
  let solution = { Solution.assignments; objective = 0.0 } in
  let solution =
    { solution with Solution.objective = Solution.access_control_value inst solution }
  in
  let runtime = Budget.elapsed budget -. t0 in
  rstats.Rstats.greedy_time <- rstats.Rstats.greedy_time +. runtime;
  rstats.Rstats.greedy_accepted <-
    rstats.Rstats.greedy_accepted + List.length !accepted;
  ( solution,
    { lp_solves = rstats.Rstats.greedy_lp_solves - lp_solves0;
      candidates_tried = !candidates_tried; runtime } )
