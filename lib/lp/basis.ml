module Slu = Lina.Lu.Sparse

(* Forrest–Tomlin: the factors themselves absorb each pivot
   (Lina.Lu.Sparse.ft_update), so there is no product-form file to pay
   on later solves — only the bounded row-eta multipliers inside. *)
type t = { m : int; ft : Slu.ft; scratch : Slu.scratch }

type update_result = Applied of { work : int; added : int } | Rejected

let create m =
  {
    m;
    ft = Slu.ft_of_factors (Slu.of_diagonal (Array.make m 1.0));
    scratch = Slu.scratch m;
  }

let update_count t = Slu.ft_updates t.ft

let fill_ratio t = Slu.ft_fill_ratio t.ft

let solve_cost t = Slu.ft_nnz t.ft + t.m

let load_identity t signs = Slu.ft_refresh t.ft (Slu.of_diagonal signs)

let factorize t col = Slu.ft_refactorize t.ft ~col

let ftran_in_place t b = Slu.ft_ftran t.ft t.scratch b

let ftran_col t col w =
  col (fun i v -> w.(i) <- w.(i) +. v);
  Slu.ft_ftran t.ft t.scratch w

let btran_in_place t c = Slu.ft_btran t.ft t.scratch c

let unit_row t r out =
  Array.fill out 0 t.m 0.0;
  out.(r) <- 1.0;
  btran_in_place t out

let update t ~r =
  match Slu.ft_update t.ft t.scratch ~r with
  | Some { Slu.upd_work; upd_added } ->
    Applied { work = upd_work; added = upd_added }
  | None -> Rejected
