type t = {
  rows : int;
  cols : int;
  col_ptr : int array;
  row_idx : int array;
  value : float array;
}

module Builder = struct
  type b = {
    b_rows : int;
    b_cols : int;
    mutable entries : (int * int * float) list;  (* (col, row, value) *)
    mutable count : int;
  }

  let create ~rows ~cols =
    if rows < 0 || cols < 0 then invalid_arg "Csc.Builder.create";
    { b_rows = rows; b_cols = cols; entries = []; count = 0 }

  let add b ~row ~col v =
    if row < 0 || row >= b.b_rows || col < 0 || col >= b.b_cols then
      invalid_arg "Csc.Builder.add: index out of bounds";
    b.entries <- (col, row, v) :: b.entries;
    b.count <- b.count + 1

  let finish b =
    let sorted =
      List.sort
        (fun (c1, r1, _) (c2, r2, _) ->
          match compare c1 c2 with 0 -> compare r1 r2 | c -> c)
        b.entries
    in
    (* Merge duplicates and drop entries that cancel to zero. *)
    let rec merge acc = function
      | [] -> List.rev acc
      | (c, r, v) :: rest ->
        let rec take v = function
          | (c', r', w) :: tl when c' = c && r' = r -> take (v +. w) tl
          | tl -> (v, tl)
        in
        let v, rest = take v rest in
        if Tol.is_zero v then merge acc rest else merge ((c, r, v) :: acc) rest
    in
    let merged = merge [] sorted in
    let nnz = List.length merged in
    let col_ptr = Array.make (b.b_cols + 1) 0 in
    let row_idx = Array.make nnz 0 in
    let value = Array.make nnz 0.0 in
    List.iteri
      (fun k (c, r, v) ->
        row_idx.(k) <- r;
        value.(k) <- v;
        col_ptr.(c + 1) <- col_ptr.(c + 1) + 1)
      merged;
    for c = 1 to b.b_cols do
      col_ptr.(c) <- col_ptr.(c) + col_ptr.(c - 1)
    done;
    { rows = b.b_rows; cols = b.b_cols; col_ptr; row_idx; value }
end

let rows m = m.rows
let cols m = m.cols
let nnz m = Array.length m.value

let of_dense dense =
  let r = Array.length dense in
  let c = if r = 0 then 0 else Array.length dense.(0) in
  let b = Builder.create ~rows:r ~cols:c in
  Array.iteri
    (fun i row ->
      if Array.length row <> c then invalid_arg "Csc.of_dense: ragged matrix";
      Array.iteri
        (fun j v -> if not (Tol.is_zero v) then Builder.add b ~row:i ~col:j v)
        row)
    dense;
  Builder.finish b

let to_dense m =
  let dense = Array.make_matrix m.rows m.cols 0.0 in
  for j = 0 to m.cols - 1 do
    for k = m.col_ptr.(j) to m.col_ptr.(j + 1) - 1 do
      dense.(m.row_idx.(k)).(j) <- m.value.(k)
    done
  done;
  dense

let get m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then invalid_arg "Csc.get";
  let lo = ref m.col_ptr.(j) and hi = ref (m.col_ptr.(j + 1) - 1) in
  let found = ref 0.0 in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let r = m.row_idx.(mid) in
    if r = i then begin
      found := m.value.(mid);
      lo := !hi + 1
    end
    else if r < i then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let iter_col m j f =
  if j < 0 || j >= m.cols then invalid_arg "Csc.iter_col";
  for k = m.col_ptr.(j) to m.col_ptr.(j + 1) - 1 do
    f m.row_idx.(k) m.value.(k)
  done

let mult_vec m x =
  if Array.length x <> m.cols then invalid_arg "Csc.mult_vec";
  let y = Array.make m.rows 0.0 in
  for j = 0 to m.cols - 1 do
    let xj = x.(j) in
    if xj <> 0.0 then
      for k = m.col_ptr.(j) to m.col_ptr.(j + 1) - 1 do
        let i = m.row_idx.(k) in
        y.(i) <- y.(i) +. (m.value.(k) *. xj)
      done
  done;
  y

let col_dot m j y =
  let acc = ref 0.0 in
  for k = m.col_ptr.(j) to m.col_ptr.(j + 1) - 1 do
    acc := !acc +. (m.value.(k) *. y.(m.row_idx.(k)))
  done;
  !acc

let mult_trans_vec m y =
  if Array.length y <> m.rows then invalid_arg "Csc.mult_trans_vec";
  Array.init m.cols (fun j -> col_dot m j y)

let transpose m =
  let b = Builder.create ~rows:m.cols ~cols:m.rows in
  for j = 0 to m.cols - 1 do
    iter_col m j (fun i v -> Builder.add b ~row:j ~col:i v)
  done;
  Builder.finish b

let pp ppf m =
  Format.fprintf ppf "@[<v>csc %dx%d nnz=%d" m.rows m.cols (nnz m);
  for j = 0 to m.cols - 1 do
    iter_col m j (fun i v -> Format.fprintf ppf "@ (%d,%d)=%g" i j v)
  done;
  Format.fprintf ppf "@]"
