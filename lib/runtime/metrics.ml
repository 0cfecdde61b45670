module Json = Statsutil.Json

(* Histograms keep samples in reverse observation order; [hist_n] caches
   the length so merge cost stays proportional to the smaller side. *)
type hist = { mutable rev_samples : float list; mutable hist_n : int }

type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 8;
    hists = Hashtbl.create 16;
  }

let incr ?(by = 1) t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r + by
  | None -> Hashtbl.replace t.counters name (ref by)

let set_gauge t name v =
  match Hashtbl.find_opt t.gauges name with
  | Some r -> r := v
  | None -> Hashtbl.replace t.gauges name (ref v)

let observe t name v =
  match Hashtbl.find_opt t.hists name with
  | Some h ->
    h.rev_samples <- v :: h.rev_samples;
    h.hist_n <- h.hist_n + 1
  | None -> Hashtbl.replace t.hists name { rev_samples = [ v ]; hist_n = 1 }

let counter t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let gauge t name =
  match Hashtbl.find_opt t.gauges name with Some r -> Some !r | None -> None

let samples t name =
  match Hashtbl.find_opt t.hists name with
  | Some h -> List.rev h.rev_samples
  | None -> []

(* Nearest-rank quantile on a sorted array (the same convention as the
   admission service's per-request tick percentiles). *)
let quantile_of_sorted sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    sorted.(min (n - 1)
              (max 0 (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let quantile t name p =
  match Hashtbl.find_opt t.hists name with
  | None -> nan
  | Some h ->
    let a = Array.of_list h.rev_samples in
    Array.sort compare a;
    quantile_of_sorted a p

let merge ~into src =
  Hashtbl.iter (fun name r -> incr ~by:!r into name) src.counters;
  Hashtbl.iter
    (fun name r ->
      match Hashtbl.find_opt into.gauges name with
      | Some g -> g := Float.max !g !r
      | None -> Hashtbl.replace into.gauges name (ref !r))
    src.gauges;
  Hashtbl.iter
    (fun name h ->
      match Hashtbl.find_opt into.hists name with
      | Some g ->
        (* [into]'s samples first: rev(into @ src) = rev src @ rev into. *)
        g.rev_samples <- List.rev_append (List.rev h.rev_samples) g.rev_samples;
        g.hist_n <- g.hist_n + h.hist_n
      | None ->
        Hashtbl.replace into.hists name
          { rev_samples = h.rev_samples; hist_n = h.hist_n })
    src.hists

let sorted_keys tbl =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])

type hist_summary = {
  count : int;
  min_v : float;
  max_v : float;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let summarize (h : hist) =
  let a = Array.of_list h.rev_samples in
  Array.sort compare a;
  let n = Array.length a in
  let sum = Array.fold_left ( +. ) 0.0 a in
  {
    count = n;
    min_v = (if n = 0 then nan else a.(0));
    max_v = (if n = 0 then nan else a.(n - 1));
    mean = (if n = 0 then nan else sum /. float_of_int n);
    p50 = quantile_of_sorted a 0.50;
    p95 = quantile_of_sorted a 0.95;
    p99 = quantile_of_sorted a 0.99;
  }

let to_string t =
  let buf = Buffer.create 256 in
  List.iter
    (fun name ->
      Buffer.add_string buf
        (Printf.sprintf "%s = %d\n" name (counter t name)))
    (sorted_keys t.counters);
  List.iter
    (fun name ->
      Buffer.add_string buf
        (Printf.sprintf "%s = %g\n" name
           (Option.value (gauge t name) ~default:nan)))
    (sorted_keys t.gauges);
  List.iter
    (fun name ->
      let s = summarize (Hashtbl.find t.hists name) in
      Buffer.add_string buf
        (Printf.sprintf
           "%s: n=%d min=%g max=%g mean=%g p50=%g p95=%g p99=%g\n" name
           s.count s.min_v s.max_v s.mean s.p50 s.p95 s.p99))
    (sorted_keys t.hists);
  Buffer.contents buf

let to_json t =
  let counters =
    List.map
      (fun name -> (name, Json.Num (float_of_int (counter t name))))
      (sorted_keys t.counters)
  in
  let gauges =
    List.map
      (fun name ->
        (name, Json.of_float (Option.value (gauge t name) ~default:nan)))
      (sorted_keys t.gauges)
  in
  let hists =
    List.map
      (fun name ->
        let s = summarize (Hashtbl.find t.hists name) in
        ( name,
          Json.Obj
            [
              ("count", Json.Num (float_of_int s.count));
              ("min", Json.of_float s.min_v);
              ("max", Json.of_float s.max_v);
              ("mean", Json.of_float s.mean);
              ("p50", Json.of_float s.p50);
              ("p95", Json.of_float s.p95);
              ("p99", Json.of_float s.p99);
            ] ))
      (sorted_keys t.hists)
  in
  Json.Obj
    [ ("counters", Json.Obj counters); ("gauges", Json.Obj gauges);
      ("histograms", Json.Obj hists) ]
