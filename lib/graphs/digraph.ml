type edge = { id : int; src : int; dst : int }

type t = {
  n : int;
  mutable edges_rev : edge list;
  mutable m : int;
  out_adj : edge list array;  (* newest first *)
  in_adj : edge list array;
  mutable edge_arr : edge array option;  (* cache, invalidated on add *)
}

let create n =
  if n < 0 then invalid_arg "Digraph.create";
  {
    n;
    edges_rev = [];
    m = 0;
    out_adj = Array.make (max n 1) [];
    in_adj = Array.make (max n 1) [];
    edge_arr = None;
  }

let add_edge g ~src ~dst =
  if src < 0 || src >= g.n || dst < 0 || dst >= g.n then
    invalid_arg "Digraph.add_edge: node out of range";
  let e = { id = g.m; src; dst } in
  g.edges_rev <- e :: g.edges_rev;
  g.m <- g.m + 1;
  g.out_adj.(src) <- e :: g.out_adj.(src);
  g.in_adj.(dst) <- e :: g.in_adj.(dst);
  g.edge_arr <- None;
  e.id

let num_nodes g = g.n
let num_edges g = g.m

let edge_array g =
  match g.edge_arr with
  | Some a -> a
  | None ->
    let a = Array.make (max g.m 1) { id = -1; src = -1; dst = -1 } in
    List.iter (fun e -> a.(e.id) <- e) g.edges_rev;
    g.edge_arr <- Some a;
    a

let edge g id =
  if id < 0 || id >= g.m then invalid_arg "Digraph.edge: unknown id";
  (edge_array g).(id)

let edges g = List.rev g.edges_rev

let out_edges g v =
  if v < 0 || v >= g.n then invalid_arg "Digraph.out_edges";
  List.rev g.out_adj.(v)

let in_edges g v =
  if v < 0 || v >= g.n then invalid_arg "Digraph.in_edges";
  List.rev g.in_adj.(v)

let out_degree g v = List.length (out_edges g v)
let in_degree g v = List.length (in_edges g v)

let nodes g = List.init g.n (fun i -> i)

let has_edge g ~src ~dst =
  src >= 0 && src < g.n
  && List.exists (fun e -> e.dst = dst) g.out_adj.(src)

let reverse g =
  let r = create g.n in
  List.iter (fun e -> ignore (add_edge r ~src:e.dst ~dst:e.src)) (edges g);
  r

let pp ppf g =
  Format.fprintf ppf "@[<v>digraph: %d nodes, %d edges@," g.n g.m;
  List.iter (fun e -> Format.fprintf ppf "  %d: %d -> %d@," e.id e.src e.dst)
    (edges g);
  Format.fprintf ppf "@]"
