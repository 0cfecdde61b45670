(* Host metadata recorded with every result, and the process's peak
   resident set.  Both come from the kernel's files; a host that lacks
   them reports 0 rather than failing the run. *)

let first_line path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    (try Some (input_line ic) with End_of_file -> None)

(* [/sys/devices/system/cpu/online] reads like "0-3" or "0,2-5". *)
let online_cpus () =
  match first_line "/sys/devices/system/cpu/online" with
  | None -> 0
  | Some line ->
    List.fold_left
      (fun acc part ->
        match String.split_on_char '-' (String.trim part) with
        | [ a; b ] -> acc + (int_of_string b - int_of_string a + 1)
        | [ one ] when one <> "" -> acc + 1
        | _ -> acc)
      0
      (String.split_on_char ',' (String.trim line))

(* [VmHWM] of this process: the high-water mark of its resident set. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line -> (
        match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
        | kb -> float_of_int kb /. 1024.0
        | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
          scan ())
    in
    scan ()

let to_json ~seed ~jobs ~work_rate =
  let open Statsutil.Json in
  Obj
    [
      ("online_cpus", Num (float_of_int (online_cpus ())));
      ( "recommended_domains",
        Num (float_of_int (Domain.recommended_domain_count ())) );
      ("ocaml_version", Str Sys.ocaml_version);
      ("jobs", Num (float_of_int jobs));
      ("work_rate", Num work_rate);
      ("seed", Num (float_of_int seed));
    ]
