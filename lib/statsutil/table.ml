type align = Left | Right

type t = { headers : string list; mutable rows_rev : string list list }

let create ~headers =
  if headers = [] then invalid_arg "Table.create: no headers";
  { headers; rows_rev = [] }

let add_row t row =
  if List.length row <> List.length t.headers then
    invalid_arg "Table.add_row: arity mismatch";
  t.rows_rev <- row :: t.rows_rev

let render ?(align = Right) t =
  let rows = List.rev t.rows_rev in
  let all = t.headers :: rows in
  let ncols = List.length t.headers in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell -> widths.(i) <- max widths.(i) (String.length cell))
        row)
    all;
  let pad i cell =
    let w = widths.(i) in
    let gap = w - String.length cell in
    match align with
    | Left -> cell ^ String.make gap ' '
    | Right -> String.make gap ' ' ^ cell
  in
  let render_row row = String.concat "  " (List.mapi pad row) in
  let sep =
    String.concat "  "
      (List.init ncols (fun i -> String.make widths.(i) '-'))
  in
  String.concat "\n" (render_row t.headers :: sep :: List.map render_row rows)

let print ?align t =
  print_string (render ?align t);
  print_newline ()
