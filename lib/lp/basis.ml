module Dm = Lina.Dense_matrix
module Slu = Lina.Lu.Sparse
module Sv = Lina.Sparse_vec

type kind = Dense_inverse | Factored_lu | Updatable_lu

(* Product-form eta: the basis after pivoting column [r] is
   B' = B·E with E = I + (w − e_r)·e_rᵀ, w = B⁻¹a_entering.  [diag] is
   w_r, [vec] the remaining support of w. *)
type eta = { e_r : int; e_diag : float; e_vec : Sv.t }

type dense = { mutable binv : Dm.t }

type factored = {
  mutable lu : Slu.t;
  mutable etas : eta array;
  mutable n_eta : int;
  mutable eta_nnz : int;
  scratch : Slu.scratch;  (* reach-solve workspace, one per representation *)
}

(* Forrest–Tomlin: the factors themselves absorb each pivot
   (Lina.Lu.Sparse.ft_update), so there is no product-form file to pay
   on later solves — only the bounded row-eta multipliers inside. *)
type updated = {
  mutable ft : Slu.ft;
  uscratch : Slu.scratch;
}

type rep = Dense of dense | Factored of factored | Updated of updated

type t = { m : int; rep : rep; work : float array }

type update_result = Applied of { work : int; added : int } | Rejected

let no_eta = { e_r = 0; e_diag = 1.0; e_vec = Sv.empty }

let create kind m =
  let rep =
    match kind with
    | Dense_inverse -> Dense { binv = Dm.identity m }
    | Factored_lu ->
      Factored
        {
          lu = Slu.of_diagonal (Array.make m 1.0);
          etas = Array.make 16 no_eta;
          n_eta = 0;
          eta_nnz = 0;
          scratch = Slu.scratch m;
        }
    | Updatable_lu ->
      Updated
        {
          ft = Slu.ft_of_factors (Slu.of_diagonal (Array.make m 1.0));
          uscratch = Slu.scratch m;
        }
  in
  { m; rep; work = Array.make m 0.0 }

let kind t =
  match t.rep with
  | Dense _ -> Dense_inverse
  | Factored _ -> Factored_lu
  | Updated _ -> Updatable_lu

let dim t = t.m

let eta_count t =
  match t.rep with Dense _ | Updated _ -> 0 | Factored f -> f.n_eta

let update_count t =
  match t.rep with
  | Dense _ | Factored _ -> 0
  | Updated u -> Slu.ft_updates u.ft

let fill_added t =
  match t.rep with
  | Dense _ | Factored _ -> 0
  | Updated u -> Slu.ft_fill u.ft

let fill_ratio t =
  match t.rep with
  | Dense _ | Factored _ -> 1.0
  | Updated u -> Slu.ft_fill_ratio u.ft

let solve_cost t =
  match t.rep with
  | Dense _ -> t.m * t.m
  | Factored f -> Slu.nnz f.lu + f.eta_nnz + t.m
  | Updated u -> Slu.ft_nnz u.ft + t.m

let clear_etas f =
  f.n_eta <- 0;
  f.eta_nnz <- 0

let load_identity t signs =
  match t.rep with
  | Dense d ->
    let binv = Dm.create ~rows:t.m ~cols:t.m in
    Array.iteri (fun i s -> Dm.set binv i i (1.0 /. s)) signs;
    d.binv <- binv
  | Factored f ->
    f.lu <- Slu.of_diagonal signs;
    clear_etas f
  | Updated u -> Slu.ft_refresh u.ft (Slu.of_diagonal signs)

let factorize t col =
  match t.rep with
  | Dense d ->
    let b = Dm.create ~rows:t.m ~cols:t.m in
    for pos = 0 to t.m - 1 do
      col pos (fun i v -> Dm.set b i pos v)
    done;
    d.binv <- Lina.Lu.inverse (Lina.Lu.factorize b)
  | Factored f ->
    f.lu <- Slu.factorize ~n:t.m ~col;
    clear_etas f
  | Updated u -> Slu.ft_refactorize u.ft ~col

(* --- eta application --------------------------------------------------- *)

(* w <- E_1⁻¹…E_k⁻¹ applied in append order (FTRAN direction).  Etas whose
   pivot entry is zero in the current RHS are skipped outright — their
   transform is the identity there — so a sparse FTRAN only pays for the
   etas it actually meets.  Returns work: one probe per skipped eta, the
   eta's support otherwise. *)
let etas_ftran f w =
  let work = ref 0 in
  for k = 0 to f.n_eta - 1 do
    let e = f.etas.(k) in
    let wr = w.(e.e_r) in
    if wr = 0.0 then incr work
    else begin
      let t = wr /. e.e_diag in
      Sv.axpy_dense (-.t) e.e_vec w;
      w.(e.e_r) <- t;
      work := !work + 1 + Sv.nnz e.e_vec
    end
  done;
  !work

(* y <- E_k⁻ᵀ…E_1⁻ᵀ applied in reverse order (BTRAN direction).  The
   transposed eta needs its sparse dot against [y] regardless of the pivot
   entry, so the work is the full eta file. *)
let etas_btran f y =
  for k = f.n_eta - 1 downto 0 do
    let e = f.etas.(k) in
    y.(e.e_r) <- (y.(e.e_r) -. Sv.dot_dense e.e_vec y) /. e.e_diag
  done;
  f.eta_nnz

(* --- solves ------------------------------------------------------------ *)

let ftran_in_place t b =
  match t.rep with
  | Dense d ->
    let x = Dm.mult_vec d.binv b in
    Array.blit x 0 b 0 t.m;
    t.m * t.m
  | Factored f ->
    let lw = Slu.ftran_reach f.lu f.scratch b in
    lw + etas_ftran f b
  | Updated u -> Slu.ft_ftran u.ft u.uscratch b

let ftran_col t col w =
  match t.rep with
  | Dense d ->
    col (fun i v -> Dm.col_axpy d.binv i v w);
    t.m * t.m
  | Factored f ->
    col (fun i v -> w.(i) <- w.(i) +. v);
    let lw = Slu.ftran_reach f.lu f.scratch w in
    lw + etas_ftran f w
  | Updated u ->
    col (fun i v -> w.(i) <- w.(i) +. v);
    Slu.ft_ftran u.ft u.uscratch w

let btran_in_place t c =
  match t.rep with
  | Dense d ->
    (* y = binvᵀ c on the raw storage (row-major, so rows scatter). *)
    let raw = Dm.raw d.binv in
    let m = t.m in
    Array.fill t.work 0 m 0.0;
    for i = 0 to m - 1 do
      let ci = c.(i) in
      if ci <> 0.0 then begin
        let base = i * m in
        for k = 0 to m - 1 do
          t.work.(k) <- t.work.(k) +. (ci *. raw.(base + k))
        done
      end
    done;
    Array.blit t.work 0 c 0 m;
    t.m * t.m
  | Factored f ->
    let ew = etas_btran f c in
    ew + Slu.btran_reach f.lu f.scratch c
  | Updated u -> Slu.ft_btran u.ft u.uscratch c

let unit_row t r out =
  match t.rep with
  | Dense d ->
    Array.blit (Dm.raw d.binv) (r * t.m) out 0 t.m;
    t.m * t.m
  | Factored _ | Updated _ ->
    Array.fill out 0 t.m 0.0;
    out.(r) <- 1.0;
    btran_in_place t out

(* --- pivot update ------------------------------------------------------ *)

let update t ~r ~w =
  match t.rep with
  | Dense d ->
    Dm.pivot_update d.binv w r;
    Applied { work = 0; added = 0 }
  | Factored f ->
    let diag = w.(r) in
    if Float.abs diag < Lina.Tol.pivot then
      invalid_arg "Basis.update: pivot too small";
    let vec = Sv.of_dense ~skip:r w in
    if f.n_eta = Array.length f.etas then begin
      let grown = Array.make (2 * f.n_eta) no_eta in
      Array.blit f.etas 0 grown 0 f.n_eta;
      f.etas <- grown
    end;
    f.etas.(f.n_eta) <- { e_r = r; e_diag = diag; e_vec = vec };
    f.n_eta <- f.n_eta + 1;
    let added = Sv.nnz vec + 1 in
    f.eta_nnz <- f.eta_nnz + added;
    Applied { work = added; added }
  | Updated u -> (
    match Slu.ft_update u.ft u.uscratch ~r with
    | Some { Slu.upd_work; upd_added } ->
      Applied { work = upd_work; added = upd_added }
    | None -> Rejected)
