(* Unit and property tests for the sparse linear algebra layer. *)

let feq = Alcotest.(check (float 1e-9))

let csc_tests =
  [
    Alcotest.test_case "builder roundtrip" `Quick (fun () ->
        let dense = [| [| 1.; 0.; 2. |]; [| 0.; 3.; 0. |] |] in
        let m = Lina.Csc.of_dense dense in
        Alcotest.(check int) "nnz" 3 (Lina.Csc.nnz m);
        let back = Lina.Csc.to_dense m in
        Alcotest.(check bool) "roundtrip" true (back = dense));
    Alcotest.test_case "duplicate entries summed" `Quick (fun () ->
        let b = Lina.Csc.Builder.create ~rows:2 ~cols:2 in
        Lina.Csc.Builder.add b ~row:0 ~col:1 1.5;
        Lina.Csc.Builder.add b ~row:0 ~col:1 2.5;
        let m = Lina.Csc.Builder.finish b in
        feq "summed" 4.0 (Lina.Csc.get m 0 1));
    Alcotest.test_case "cancelling entries dropped" `Quick (fun () ->
        let b = Lina.Csc.Builder.create ~rows:1 ~cols:1 in
        Lina.Csc.Builder.add b ~row:0 ~col:0 1.0;
        Lina.Csc.Builder.add b ~row:0 ~col:0 (-1.0);
        let m = Lina.Csc.Builder.finish b in
        Alcotest.(check int) "nnz" 0 (Lina.Csc.nnz m));
    Alcotest.test_case "mult_vec / mult_trans_vec" `Quick (fun () ->
        let m = Lina.Csc.of_dense [| [| 1.; 2. |]; [| 3.; 4. |] |] in
        let y = Lina.Csc.mult_vec m [| 1.; 1. |] in
        feq "row0" 3.0 y.(0);
        feq "row1" 7.0 y.(1);
        let z = Lina.Csc.mult_trans_vec m [| 1.; 1. |] in
        feq "col0" 4.0 z.(0);
        feq "col1" 6.0 z.(1));
    Alcotest.test_case "transpose" `Quick (fun () ->
        let m = Lina.Csc.of_dense [| [| 1.; 2. |]; [| 0.; 4. |] |] in
        let t = Lina.Csc.transpose m in
        feq "t(1,0)" 2.0 (Lina.Csc.get t 1 0);
        feq "t(0,1)" 0.0 (Lina.Csc.get t 0 1));
    Alcotest.test_case "out of bounds rejected" `Quick (fun () ->
        let b = Lina.Csc.Builder.create ~rows:1 ~cols:1 in
        Alcotest.check_raises "bad row"
          (Invalid_argument "Csc.Builder.add: index out of bounds") (fun () ->
            Lina.Csc.Builder.add b ~row:1 ~col:0 1.0));
  ]

(* --- reach-based sparse triangular solves ------------------------------ *)

(* A sparse, diagonally dominant column accessor: always factorizable and
   sparse enough that the reach path actually runs below the density
   threshold. *)
let random_sparse_cols rng n =
  Array.init n (fun j ->
      let entries = ref [ (j, Workload.Rng.float_range rng 3.0 8.0) ] in
      for _ = 1 to Workload.Rng.int rng 3 do
        let i = Workload.Rng.int rng n in
        if i <> j && not (List.mem_assoc i !entries) then
          entries := (i, Workload.Rng.float_range rng (-1.0) 1.0) :: !entries
      done;
      !entries)

let reach_agrees ~trans f scratch n b =
  let dense = Array.copy b and sparse = Array.copy b in
  let work = Array.make n 0.0 in
  let billed =
    if trans then begin
      Lina.Lu.Sparse.btran_in_place f ~work dense;
      Lina.Lu.Sparse.btran_reach f scratch sparse
    end
    else begin
      Lina.Lu.Sparse.ftran_in_place f ~work dense;
      Lina.Lu.Sparse.ftran_reach f scratch sparse
    end
  in
  let scale =
    Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 1.0 dense
  in
  billed >= n
  && Array.for_all2
       (fun a b -> Float.abs (a -. b) <= 1e-9 *. scale)
       dense sparse

let reach_properties =
  let make_case ~name ~trans ~rhs_of =
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name ~count:60
         QCheck2.Gen.(pair (int_range 1 40) (int_bound 100_000))
         (fun (n, seed) ->
           let rng = Workload.Rng.create (Int64.of_int (seed + 13)) in
           let cols = random_sparse_cols rng n in
           let f =
             Lina.Lu.Sparse.factorize ~n ~col:(fun j emit ->
                 List.iter (fun (i, v) -> emit i v) cols.(j))
           in
           let scratch = Lina.Lu.Sparse.scratch n in
           (* Several solves through one scratch: a kernel that fails to
              reset its workspace poisons the next call. *)
           List.for_all
             (fun k -> reach_agrees ~trans f scratch n (rhs_of rng n k))
             [ 0; 1; 2 ]))
  in
  let sparse_rhs rng n _ =
    Array.init n (fun _ ->
        if Workload.Rng.int rng 4 = 0 then
          Workload.Rng.float_range rng (-3.0) 3.0
        else 0.0)
  in
  let dense_rhs rng n _ =
    Array.init n (fun _ -> Workload.Rng.float_range rng (-3.0) 3.0)
  in
  let unit_rhs rng n k =
    let b = Array.make n 0.0 in
    ignore k;
    b.(Workload.Rng.int rng n) <- Workload.Rng.float_range rng 0.5 2.0;
    b
  in
  let zero_rhs _ n _ = Array.make n 0.0 in
  [
    make_case ~name:"ftran_reach = ftran (sparse rhs)" ~trans:false
      ~rhs_of:sparse_rhs;
    make_case ~name:"btran_reach = btran (sparse rhs)" ~trans:true
      ~rhs_of:sparse_rhs;
    make_case ~name:"ftran_reach = ftran (dense rhs fallback)" ~trans:false
      ~rhs_of:dense_rhs;
    make_case ~name:"btran_reach = btran (dense rhs fallback)" ~trans:true
      ~rhs_of:dense_rhs;
    make_case ~name:"ftran_reach single-nonzero rhs" ~trans:false
      ~rhs_of:unit_rhs;
    make_case ~name:"btran_reach single-nonzero rhs" ~trans:true
      ~rhs_of:unit_rhs;
    make_case ~name:"ftran_reach all-zero rhs" ~trans:false ~rhs_of:zero_rhs;
    make_case ~name:"btran_reach all-zero rhs" ~trans:true ~rhs_of:zero_rhs;
  ]

(* --- Forrest–Tomlin updatable factors ---------------------------------- *)

module Slu = Lina.Lu.Sparse

let factorize_cols n cols =
  Slu.factorize ~n ~col:(fun j emit ->
      List.iter (fun (i, v) -> emit i v) cols.(j))

(* A replacement column with a dominant entry on row [r]: keeps the basis
   diagonally dominant, so the updated diagonal stays healthy and the
   update is accepted. *)
let replacement_col rng n r =
  let entries = ref [ (r, Workload.Rng.float_range rng 3.0 8.0) ] in
  for _ = 1 to Workload.Rng.int rng 3 do
    let i = Workload.Rng.int rng n in
    if i <> r && not (List.mem_assoc i !entries) then
      entries := (i, Workload.Rng.float_range rng (-1.0) 1.0) :: !entries
  done;
  !entries

let close_to a b =
  let scale =
    Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 1.0 b
  in
  Array.for_all2 (fun u v -> Float.abs (u -. v) <= 1e-8 *. scale) a b

(* N successive updates through one [ft], each checked against a fresh
   factorization of the mutated basis: ftran and btran must agree on
   random (sparse and dense) right-hand sides. *)
let ft_agrees_with_fresh rng n updates =
  let cols = random_sparse_cols rng n in
  let ft = Slu.ft_of_factors (factorize_cols n cols) in
  let scratch = Slu.scratch n in
  let ok = ref true in
  for _ = 1 to updates do
    if !ok then begin
      let r = Workload.Rng.int rng n in
      let entries = replacement_col rng n r in
      cols.(r) <- entries;
      let w = Array.make n 0.0 in
      List.iter (fun (i, v) -> w.(i) <- w.(i) +. v) entries;
      ignore (Slu.ft_ftran ft scratch w : int);
      match Slu.ft_update ft scratch ~r with
      | None -> ok := false
      | Some { Slu.upd_work; upd_added } ->
        if upd_work <= 0 || upd_added < 0 then ok := false
        else begin
          let fresh = factorize_cols n cols in
          let fscr = Slu.scratch n in
          let b =
            Array.init n (fun _ ->
                if Workload.Rng.int rng 3 = 0 then
                  Workload.Rng.float_range rng (-2.0) 2.0
                else 0.0)
          in
          let x_ft = Array.copy b and x_fr = Array.copy b in
          ignore (Slu.ft_ftran ft scratch x_ft : int);
          ignore (Slu.ftran_reach fresh fscr x_fr : int);
          let c =
            Array.init n (fun _ -> Workload.Rng.float_range rng (-2.0) 2.0)
          in
          let y_ft = Array.copy c and y_fr = Array.copy c in
          ignore (Slu.ft_btran ft scratch y_ft : int);
          ignore (Slu.btran_reach fresh fscr y_fr : int);
          if not (close_to x_ft x_fr && close_to y_ft y_fr) then ok := false
        end
    end
  done;
  (* The fill ratio can legitimately dip below 1: a replacement column
     sparser than the one it evicts shrinks U. *)
  !ok && Slu.ft_updates ft = updates && Slu.ft_fill_ratio ft > 0.0

let ft_properties =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"N Forrest–Tomlin updates agree with fresh refactorization"
         ~count:40
         QCheck2.Gen.(pair (int_range 2 30) (int_bound 100_000))
         (fun (n, seed) ->
           let rng = Workload.Rng.create (Int64.of_int (seed + 29)) in
           let updates = 1 + Workload.Rng.int rng (min 20 (2 * n)) in
           ft_agrees_with_fresh rng n updates));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"random pivot sequences keep ft_nnz = solve cost coherent"
         ~count:30
         QCheck2.Gen.(int_bound 100_000)
         (fun seed ->
           let rng = Workload.Rng.create (Int64.of_int (seed + 71)) in
           let n = 3 + Workload.Rng.int rng 20 in
           let cols = random_sparse_cols rng n in
           let ft = Slu.ft_of_factors (factorize_cols n cols) in
           let scratch = Slu.scratch n in
           let nnz0 = Slu.ft_nnz ft in
           let ok = ref (nnz0 > 0 && Slu.ft_eta_nnz ft = 0) in
           for _ = 1 to 12 do
             if !ok then begin
               let r = Workload.Rng.int rng n in
               let entries = replacement_col rng n r in
               cols.(r) <- entries;
               let w = Array.make n 0.0 in
               List.iter (fun (i, v) -> w.(i) <- w.(i) +. v) entries;
               ignore (Slu.ft_ftran ft scratch w : int);
               match Slu.ft_update ft scratch ~r with
               | None -> ok := false
               | Some _ ->
                 (* The billed solve work is bounded by the advertised
                    solve cost (ft_nnz plus the O(n) permute passes). *)
                 let b =
                   Array.init n (fun _ ->
                       Workload.Rng.float_range rng (-2.0) 2.0)
                 in
                 let billed = Slu.ft_ftran ft scratch b in
                 if billed <= 0 || billed > Slu.ft_nnz ft + (4 * n) then
                   ok := false
             end
           done;
           !ok));
  ]

let ft_tests =
  [
    Alcotest.test_case "singular spike is rejected and flags stale" `Quick
      (fun () ->
        let n = 4 in
        let cols =
          Array.init n (fun j -> [ (j, 2.0 +. float_of_int j) ])
        in
        let ft = Slu.ft_of_factors (factorize_cols n cols) in
        let scratch = Slu.scratch n in
        (* Replacing column 2 with e_0 collides with column 0: the
           updated diagonal is exactly zero. *)
        let w = Array.make n 0.0 in
        w.(0) <- 1.0;
        ignore (Slu.ft_ftran ft scratch w : int);
        (match Slu.ft_update ft scratch ~r:2 with
        | None -> ()
        | Some _ -> Alcotest.fail "singular spike must be rejected");
        (* Stale factors refuse every operation until refreshed. *)
        let b = Array.make n 1.0 in
        (match Slu.ft_ftran ft scratch b with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "stale ftran must raise");
        (match Slu.ft_btran ft scratch b with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "stale btran must raise");
        (* A refresh from a sound factorization re-arms the factors. *)
        Slu.ft_refresh ft (factorize_cols n cols);
        let x = Array.make n 1.0 in
        ignore (Slu.ft_ftran ft scratch x : int);
        Array.iteri
          (fun i v ->
            Alcotest.(check (float 1e-9)) "refreshed solve"
              (1.0 /. (2.0 +. float_of_int i)) v)
          x;
        Alcotest.(check int) "updates reset by refresh" 0
          (Slu.ft_updates ft));
    Alcotest.test_case "update without a stashed spike is rejected" `Quick
      (fun () ->
        let n = 3 in
        let cols = Array.init n (fun j -> [ (j, 1.0) ]) in
        let ft = Slu.ft_of_factors (factorize_cols n cols) in
        let scratch = Slu.scratch n in
        match Slu.ft_update ft scratch ~r:0 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "update must require a stashed spike");
  ]

(* --- factorization oracle ----------------------------------------------- *)

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
       a b

let unit_vec n k =
  let e = Array.make n 0.0 in
  e.(k) <- 1.0;
  e

let col_of cols j emit = List.iter (fun (i, v) -> emit i v) cols.(j)

let outcome f = match f () with x -> Ok x | exception Lina.Lu.Singular k -> Error k

(* [Lina.Lu.Sparse.factorize] against the dense-scan reference
   ([Lu_reference]): the same [Singular] step, or the same [nnz] and the
   same bits from the dense FTRAN and BTRAN of every unit vector. *)
let matches_reference n cols =
  let col = col_of cols in
  match
    ( outcome (fun () -> Lu_reference.factorize ~n ~col),
      outcome (fun () -> Slu.factorize ~n ~col) )
  with
  | Error k, Error k' -> k = k'
  | Ok r, Ok f ->
    let work = Array.make n 0.0 in
    Lu_reference.nnz r = Slu.nnz f
    && List.for_all
         (fun k ->
           let x = unit_vec n k and y = unit_vec n k in
           Slu.ftran_in_place f ~work x;
           Slu.btran_in_place f ~work y;
           same_bits (Lu_reference.ftran r (unit_vec n k)) x
           && same_bits (Lu_reference.btran r (unit_vec n k)) y)
         (List.init n Fun.id)
  | _ -> false

(* Columns with every quirk an accessor may present: duplicate rows
   (summed), explicit zeros, tie-prone values, and — in a quarter of the
   matrices — one empty or near-zero (singular) column. *)
let quirky_cols rng n =
  let value () =
    match Workload.Rng.int rng 4 with
    | 0 -> [| -2.0; -1.0; 0.5; 1.0; 2.0 |].(Workload.Rng.int rng 5)
    | 1 -> 0.0
    | _ -> Workload.Rng.float_range rng (-3.0) 3.0
  in
  let cols =
    Array.init n (fun j ->
        let diag =
          if Workload.Rng.int rng 8 = 0 then []
          else [ (j, Workload.Rng.float_range rng 1.0 6.0) ]
        in
        let rest =
          List.init (Workload.Rng.int rng 5) (fun _ ->
              (Workload.Rng.int rng n, value ()))
        in
        let dups = List.filteri (fun k _ -> k < Workload.Rng.int rng 3) rest in
        diag @ rest @ dups)
  in
  if n > 0 && Workload.Rng.int rng 4 = 0 then
    cols.(Workload.Rng.int rng n) <-
      (if Workload.Rng.bool rng then []
       else [ (Workload.Rng.int rng n, 1e-13); (Workload.Rng.int rng n, 1e-14) ]);
  cols

let oracle_properties =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"sparse factorize = dense-scan reference, bitwise"
         ~count:300
         QCheck2.Gen.(pair (int_range 0 30) (int_bound 100_000))
         (fun (n, seed) ->
           let rng = Workload.Rng.create (Int64.of_int (seed + 101)) in
           matches_reference n (quirky_cols rng n)));
  ]

let oracle_tests =
  [
    Alcotest.test_case "reference agreement at n = 0 and n = 1" `Quick
      (fun () ->
        List.iter
          (fun (name, n, cols) ->
            Alcotest.(check bool) name true (matches_reference n cols))
          [
            ("empty", 0, [||]);
            ("scalar", 1, [| [ (0, -3.5) ] |]);
            ("duplicates summed", 1, [| [ (0, 1.5); (0, 2.0) ] |]);
            ("empty column", 1, [| [] |]);
            ("explicit zero", 1, [| [ (0, 0.0) ] |]);
            ("cancelling duplicates", 1, [| [ (0, 1.0); (0, -1.0) ] |]);
            ("below pivot tolerance", 1, [| [ (0, 1e-13) ] |]);
          ]);
    Alcotest.test_case "reference agreement on a paper-scenario root basis"
      `Quick (fun () ->
        let rng = Workload.Rng.create 5L in
        let inst =
          Tvnep.Scenario.generate rng
            { Tvnep.Scenario.paper with num_requests = 3 }
        in
        let fm = Tvnep.Csigma_model.build inst in
        ignore (Tvnep.Objective.apply fm Tvnep.Objective.Access_control);
        let sf = Lp.Std_form.of_model fm.Tvnep.Formulation.model in
        let r = Lp.Simplex.solve sf in
        let basic = (Option.get r.Lp.Simplex.final_basis).Lp.Simplex.basic in
        let n = sf.Lp.Std_form.n_rows in
        let cols =
          Array.init n (fun pos ->
              let l = ref [] in
              Lina.Csc.iter_col sf.Lp.Std_form.a basic.(pos) (fun i v ->
                  l := (i, v) :: !l);
              List.rev !l)
        in
        Alcotest.(check bool) "optimal root" true
          (r.Lp.Simplex.status = Lp.Simplex.Optimal);
        Alcotest.(check bool) "bitwise agreement" true
          (matches_reference n cols));
  ]

(* --- refactorization into retained storage ----------------------------- *)

(* Both [ft]s give the same [ft_nnz] and the same bits for the FTRAN and
   BTRAN of every unit vector. *)
let same_ft n a b =
  let sa = Slu.scratch n and sb = Slu.scratch n in
  let solve_both solve k =
    let x = unit_vec n k and y = unit_vec n k in
    ignore (solve a sa x : int);
    ignore (solve b sb y : int);
    same_bits x y
  in
  Slu.ft_nnz a = Slu.ft_nnz b
  && List.for_all
       (fun k -> solve_both Slu.ft_ftran k && solve_both Slu.ft_btran k)
       (List.init n Fun.id)

(* One [ft] refactorized through a sequence of same-dimension matrices —
   healthy ones, and singular ones that fail mid-elimination with the
   accumulator in use — must always equal a fresh factorization of the
   last healthy matrix. *)
let reuse_agrees rng n =
  let healthy () = random_sparse_cols rng n in
  let singular () =
    let cols = random_sparse_cols rng n in
    cols.(Workload.Rng.int rng n) <-
      (if Workload.Rng.bool rng then []
       else List.init 3 (fun _ -> (Workload.Rng.int rng n, 1e-13)));
    cols
  in
  let first = healthy () in
  let ft = Slu.ft_of_factors (factorize_cols n first) in
  let last = ref first in
  List.for_all
    (fun cols ->
      (match Slu.ft_refactorize ft ~col:(col_of cols) with
      | () -> last := cols
      | exception Lina.Lu.Singular _ -> ());
      same_ft n ft (Slu.ft_of_factors (factorize_cols n !last)))
    [ healthy (); singular (); healthy (); healthy (); singular (); healthy () ]

let reuse_properties =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"refactorizing one ft equals fresh factorizations" ~count:40
         QCheck2.Gen.(pair (int_range 1 30) (int_bound 100_000))
         (fun (n, seed) ->
           reuse_agrees (Workload.Rng.create (Int64.of_int (seed + 7))) n));
  ]

let suite =
  [
    ("lina.csc", csc_tests);
    ("lina.lu.reach", reach_properties);
    ("lina.lu.ft", ft_tests @ ft_properties);
    ("lina.lu.oracle", oracle_tests @ oracle_properties);
    ("lina.lu.reuse", reuse_properties);
  ]
