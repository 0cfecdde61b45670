type sense = Minimize | Maximize
type var_kind = Continuous | Integer | Binary
type var = int

type var_info = {
  v_name : string;
  mutable v_lb : float;
  mutable v_ub : float;
  v_kind : var_kind;
}

type row = { row_name : string; expr : Expr.t; lo : float; hi : float }

type t = {
  m_name : string;
  mutable vars : var_info array;
  mutable n_vars : int;
  mutable rows_rev : row list;
  mutable n_rows : int;
  mutable obj_sense : sense;
  mutable obj : Expr.t;
}

let create ?(name = "model") () =
  {
    m_name = name;
    vars = Array.make 16 { v_name = ""; v_lb = 0.; v_ub = 0.; v_kind = Continuous };
    n_vars = 0;
    rows_rev = [];
    n_rows = 0;
    obj_sense = Minimize;
    obj = Expr.zero;
  }

let name m = m.m_name

let ensure_capacity m =
  if m.n_vars = Array.length m.vars then begin
    let bigger =
      Array.make (2 * Array.length m.vars)
        { v_name = ""; v_lb = 0.; v_ub = 0.; v_kind = Continuous }
    in
    Array.blit m.vars 0 bigger 0 m.n_vars;
    m.vars <- bigger
  end

let add_var m ?(lb = 0.0) ?(ub = infinity) ?(kind = Continuous) vname =
  let lb, ub =
    match kind with
    | Binary -> (Float.max lb 0.0, Float.min ub 1.0)
    | Continuous | Integer -> (lb, ub)
  in
  if lb > ub then invalid_arg (Printf.sprintf "Model.add_var %s: lb > ub" vname);
  ensure_capacity m;
  let id = m.n_vars in
  m.vars.(id) <- { v_name = vname; v_lb = lb; v_ub = ub; v_kind = kind };
  m.n_vars <- id + 1;
  id

let check_expr m e =
  List.iter
    (fun (v, _) ->
      if v < 0 || v >= m.n_vars then
        invalid_arg (Printf.sprintf "Model: expression uses unknown var %d" v))
    (Expr.terms e)

let add_row m rname e lo hi =
  check_expr m e;
  if lo > hi then invalid_arg "Model.add_range: lo > hi";
  let c = Expr.constant e in
  let e = Expr.add_const e (-.c) in
  let row = { row_name = rname; expr = e; lo = lo -. c; hi = hi -. c } in
  m.rows_rev <- row :: m.rows_rev;
  m.n_rows <- m.n_rows + 1

let auto_name m prefix = Printf.sprintf "%s%d" prefix m.n_rows

let add_le m ?name e rhs =
  let rname = match name with Some n -> n | None -> auto_name m "c" in
  add_row m rname e neg_infinity rhs

let add_ge m ?name e rhs =
  let rname = match name with Some n -> n | None -> auto_name m "c" in
  add_row m rname e rhs infinity

let add_eq m ?name e rhs =
  let rname = match name with Some n -> n | None -> auto_name m "c" in
  add_row m rname e rhs rhs

let add_range m ?name ~lo ~hi e =
  let rname = match name with Some n -> n | None -> auto_name m "c" in
  add_row m rname e lo hi

let set_objective m sense e =
  check_expr m e;
  m.obj_sense <- sense;
  m.obj <- e

let objective m = (m.obj_sense, m.obj)

let check_var m v =
  if v < 0 || v >= m.n_vars then invalid_arg "Model: unknown variable"

let fix_var m v x =
  check_var m v;
  let info = m.vars.(v) in
  info.v_lb <- x;
  info.v_ub <- x

let set_bounds m v ~lb ~ub =
  check_var m v;
  if lb > ub then invalid_arg "Model.set_bounds: lb > ub";
  let info = m.vars.(v) in
  info.v_lb <- lb;
  info.v_ub <- ub

let num_vars m = m.n_vars
let num_constrs m = m.n_rows

let var_of_id m id =
  check_var m id;
  id

let var_name m v =
  check_var m v;
  m.vars.(v).v_name

let var_kind m v =
  check_var m v;
  m.vars.(v).v_kind

let var_lb m v =
  check_var m v;
  m.vars.(v).v_lb

let var_ub m v =
  check_var m v;
  m.vars.(v).v_ub

let integer_vars m =
  let acc = ref [] in
  for v = m.n_vars - 1 downto 0 do
    match m.vars.(v).v_kind with
    | Integer | Binary -> acc := v :: !acc
    | Continuous -> ()
  done;
  !acc

let is_mip m = integer_vars m <> []

let rows m = List.rev m.rows_rev

let pp ppf m =
  let vname v = var_name m v in
  Format.fprintf ppf "@[<v>model %s: %d vars, %d rows@," m.m_name m.n_vars
    m.n_rows;
  let sense_str = match m.obj_sense with Minimize -> "min" | Maximize -> "max" in
  Format.fprintf ppf "%s %a@," sense_str (Expr.pp ~name:vname ()) m.obj;
  List.iter
    (fun r ->
      Format.fprintf ppf "%s: %g <= %a <= %g@," r.row_name r.lo
        (Expr.pp ~name:vname ())
        r.expr r.hi)
    (rows m);
  for v = 0 to m.n_vars - 1 do
    let i = m.vars.(v) in
    let kind_str =
      match i.v_kind with
      | Continuous -> ""
      | Integer -> " int"
      | Binary -> " bin"
    in
    Format.fprintf ppf "%s in [%g, %g]%s@," i.v_name i.v_lb i.v_ub kind_str
  done;
  Format.fprintf ppf "@]"
