let check_nonempty name = function
  | [] -> invalid_arg (name ^ ": empty list")
  | _ -> ()

let mean xs =
  check_nonempty "Stats.mean" xs;
  List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let variance xs =
  check_nonempty "Stats.variance" xs;
  match xs with
  | [ _ ] -> 0.0
  | _ ->
    let m = mean xs in
    let ss = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
    ss /. float_of_int (List.length xs - 1)

let stddev xs = sqrt (variance xs)

let quantile q xs =
  check_nonempty "Stats.quantile" xs;
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.quantile: q outside [0,1]";
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = int_of_float (Float.ceil pos) in
  if lo = hi then a.(lo)
  else begin
    let frac = pos -. float_of_int lo in
    ((1.0 -. frac) *. a.(lo)) +. (frac *. a.(hi))
  end

let median xs = quantile 0.5 xs

type summary = {
  count : int;
  min : float;
  q1 : float;
  med : float;
  q3 : float;
  max : float;
  avg : float;
}

let summarize xs =
  check_nonempty "Stats.summarize" xs;
  {
    count = List.length xs;
    min = List.fold_left Float.min infinity xs;
    q1 = quantile 0.25 xs;
    med = median xs;
    q3 = quantile 0.75 xs;
    max = List.fold_left Float.max neg_infinity xs;
    avg = mean xs;
  }

let geometric_mean xs =
  check_nonempty "Stats.geometric_mean" xs;
  List.iter
    (fun x -> if x <= 0.0 then invalid_arg "Stats.geometric_mean: non-positive")
    xs;
  exp (mean (List.map log xs))
