(* The benchmark program: one workload, one seed, tracing off or on.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Run from the repository root (perfbench/run.py builds and runs it).

   Tracing off: set the workload up five times (input generation from
   the seed plus a warm-up pass; [setup_s] is the median), run the timed
   phase once over the inputs, check every output and print the
   end-to-end metrics.

   Tracing on: the same set-up, then each input of the first half run
   untraced and traced (a span recorder per operation, and allocation
   counted over all domains), the two passes' fingerprints compared byte
   for byte, the layer probes, and the per-layer metrics.  The traced
   side pays for both the span recorder and the allocation count, so
   [trace.overhead] measures the two together.

   Metric names and units are those of BENCHMARK.json, read at start-up:
   a metric it does not name, or one it names that the run does not
   produce, is an error.  The last line of standard output is the result
   object; the line before it holds the host metadata, the input digest
   and the decision fingerprint.  The exit code is 0 only when every
   check passed. *)

module Json = Statsutil.Json

let setups = 5

type args = {
  workload : Workloads.t;
  seed : int;
  seconds : float;
  trace : bool;
}

let usage () =
  prerr_endline
    ("usage: bench.exe --workload {"
    ^ String.concat "|" (List.map (fun (w : Workloads.t) -> w.name) Workloads.all)
    ^ "} --seed N --seconds S --trace 0|1");
  exit 2

let parse argv =
  let rec go acc = function
    | [] -> acc
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list argv)) in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
  let workload =
    match Workloads.find (get "workload") with Some w -> w | None -> usage ()
  in
  let seconds = float_of_int (int "seconds") in
  if seconds <= 0.0 then usage ();
  let trace =
    match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  { workload; seed = int "seed"; seconds; trace }

(* name -> unit for one metric list of BENCHMARK.json. *)
let declared section =
  let fail m =
    prerr_endline ("BENCHMARK.json: " ^ m);
    exit 2
  in
  let text =
    match In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all with
    | s -> s
    | exception Sys_error e -> fail e
  in
  let doc = match Json.of_string text with Ok d -> d | Error e -> fail e in
  let str k o =
    match Json.member k o with Some (Json.Str s) -> s | _ -> fail ("no " ^ k)
  in
  match Option.bind (Json.member section doc) Json.to_list with
  | Some l -> List.map (fun m -> (str "name" m, str "unit" m)) l
  | None -> fail ("no " ^ section)

let median = Statsutil.Stats.median

(* Failure messages of a list of operations, and validator walls.  Each
   failed check counts one failed operation (a served stream is one
   operation per arrival). *)
let check ops =
  let results = List.map Workloads.check ops in
  (List.concat_map fst results, List.concat_map snd results)

let num x = Json.Num x

let print_result ~section ~attempted ~failures metrics =
  let units = declared section in
  let produced = List.map fst metrics in
  let missing = List.filter (fun (n, _) -> not (List.mem n produced)) units in
  let unknown = List.filter (fun n -> not (List.mem_assoc n units)) produced in
  let bad =
    List.filter_map
      (fun (n, v) -> if Float.is_finite v then None else Some n)
      metrics
  in
  let failures =
    failures
    @ List.map (fun (n, _) -> "metric not produced: " ^ n) missing
    @ List.map (fun n -> "metric not in BENCHMARK.json: " ^ n) unknown
    @ List.map (fun n -> "metric not finite: " ^ n) bad
  in
  let correct = failures = [] in
  List.iter (fun m -> prerr_endline ("check failed: " ^ m)) failures;
  let metric (n, v) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n
      (if Float.is_finite v then Printf.sprintf "%.17g" v else "0")
      (Option.value (List.assoc_opt n units) ~default:"")
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted
    (min attempted (List.length failures))
    (String.concat ", " (List.map metric metrics));
  exit (if correct then 0 else 1)

let print_meta a (p : Workloads.prepared) ~fingerprint ~(q : Workloads.quality) extra =
  let w = a.workload in
  let open Json in
  print_endline
    (to_compact_string
       (Obj
          ([
             ("workload", Str w.name);
             ("trace", Bool a.trace);
             ( "host",
               Host.to_json ~seed:a.seed ~jobs:(Workloads.jobs w)
                 ~work_rate:Workloads.work_rate );
             ("inputs_digest", Str (Workloads.inputs_digest p.inputs));
             ("fingerprint", Str (Digest.to_hex (Digest.string fingerprint)));
             ("revenue", num q.revenue);
             ("revenue_hex", Str (Printf.sprintf "%h" q.revenue));
             ("nodes", num (float_of_int q.nodes));
             ("ticks", num (float_of_int q.ticks));
           ]
          @ extra)))

let () =
  let a = parse Sys.argv in
  let w = a.workload in
  let runs =
    List.init setups (fun _ ->
        Workloads.step "setup" (fun () ->
            Workloads.timed (fun () ->
                let p = Workloads.generate w ~seed:a.seed ~seconds:a.seconds in
                Workloads.warm_up w p;
                p)))
  in
  let p = fst (List.hd runs) and setup_s = median (List.map snd runs) in
  if not a.trace then begin
    let ops, run_s =
      Workloads.step "timed pass" (fun () ->
          Workloads.timed (fun () -> Workloads.run_pass w ~traced:false p.inputs))
    in
    let failures, _ = Workloads.step "checks" (fun () -> check ops) in
    let q = Workloads.quality ops in
    let arrivals = Workloads.arrivals p.inputs in
    print_meta a p ~fingerprint:(Workloads.fingerprint ops) ~q
      [
        ("setup_runs_s", Json.List (List.map (fun (_, s) -> num s) runs));
        ("op_walls_s", Json.List (List.map (fun (op : Workloads.op) -> num op.wall) ops));
        ("gap_mean", num q.gap_mean);
      ];
    print_result ~section:"end_to_end" ~failures
      ~attempted:(Workloads.attempted w p.inputs)
      [
        ("setup_s", setup_s);
        ("run_s", run_s);
        ("arrivals_per_s", float_of_int arrivals /. run_s);
        ("revenue_share", q.revenue /. q.offered);
        ("bound_share", q.revenue /. q.bound);
        ("acceptance_ratio", float_of_int q.accepted /. float_of_int q.requests);
        ("peak_rss_mb", Host.peak_rss_mb ());
      ]
  end
  else begin
    let sub = Workloads.first_half p.inputs in
    (* Each input runs untraced and traced back to back, in alternating
       order, so that drift in the host's speed and whatever the first
       run of a pair leaves warm fall on both sides alike. *)
    let pairs =
      Workloads.step "untraced and traced passes" (fun () ->
          Array.to_list
            (Array.mapi
               (fun i input ->
                 let plain () = Workloads.run_op w ~traced:false input in
                 let traced () =
                   Alloc.measure (fun () -> Workloads.run_op w ~traced:true input)
                 in
                 if i mod 2 = 0 then
                   let p = plain () in
                   (p, traced ())
                 else
                   let t = traced () in
                   (plain (), t))
               sub))
    in
    let plain = List.map fst pairs and traced = List.map (fun (_, (t, _)) -> t) pairs in
    let alloc = List.fold_left (fun acc (_, (_, c)) -> Alloc.add acc c) Alloc.zero pairs in
    let wall ops = List.fold_left (fun acc (op : Workloads.op) -> acc +. op.wall) 0.0 ops in
    let plain_s = wall plain and traced_s = wall traced in
    let fp_plain = Workloads.fingerprint plain
    and fp_traced = Workloads.fingerprint traced in
    let (plain_failures, _), (traced_failures, validate_walls) =
      Workloads.step "checks" (fun () -> (check plain, check traced))
    in
    let probes = Probes.run w p ~seed:a.seed in
    let q = Workloads.quality traced in
    let failures =
      plain_failures @ traced_failures @ probes.failures
      @ (if fp_plain = fp_traced then []
         else [ "traced fingerprint differs from the untraced one" ])
      @ (if alloc.Alloc.lost_events = 0 then []
         else [ "runtime events lost: the allocation counts are short" ])
    in
    let residual =
      match (w.kind, plain) with
      | Workloads.Solve _, first :: _ -> 1.0 -. (probes.layer_wall /. first.wall)
      | _ ->
        (* One serve call holds the whole stream: no outside probe sees
           inside it. *)
        1.0
    in
    let f = float_of_int in
    print_meta a p ~fingerprint:fp_traced ~q
      [
        ("untraced_fingerprint", Json.Str (Digest.to_hex (Digest.string fp_plain)));
        ("untraced_s", num plain_s);
        ("traced_s", num traced_s);
        ("alloc_lost_events", num (f alloc.Alloc.lost_events));
      ];
    let layers = Workloads.step "span trees" (fun () -> Layers.metrics traced) in
    print_result ~section:"per_layer" ~failures
      ~attempted:(Workloads.attempted w sub)
      (probes.metrics @ layers
      @ [
          ("mip.gap_mean", q.gap_mean);
          ( "tvnep.validate_us",
            match validate_walls with [] -> 0.0 | l -> median l *. 1e6 );
          ("runtime.minor_mwords", alloc.Alloc.minor_words /. 1e6);
          ("runtime.major_collections", f alloc.Alloc.major_cycles);
          ("runtime.ns_per_tick", plain_s /. f q.ticks *. 1e9);
          ("trace.overhead", (traced_s /. plain_s) -. 1.0);
          ("trace.tiling_residual", residual);
        ])
  end
