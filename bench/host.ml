(* Host metadata carried by every BENCH_*.json: wall times are only
   comparable between runs on the same kind of host. *)

(* [/sys/devices/system/cpu/online] reads like "0-3" or "0,2-5"; a host
   without it reports 0. *)
let online_cpus () =
  match open_in "/sys/devices/system/cpu/online" with
  | exception Sys_error _ -> 0
  | ic ->
    let line =
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      try input_line ic with End_of_file -> ""
    in
    List.fold_left
      (fun acc part ->
        match String.split_on_char '-' (String.trim part) with
        | [ a; b ] -> (
          match (int_of_string_opt a, int_of_string_opt b) with
          | Some a, Some b -> acc + (b - a + 1)
          | _ -> acc)
        | [ one ] when int_of_string_opt one <> None -> acc + 1
        | _ -> acc)
      0
      (String.split_on_char ',' (String.trim line))

let json () =
  let open Statsutil.Json in
  Obj
    [
      ("online_cpus", Num (float_of_int (online_cpus ())));
      ("recommended_domains", Num (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml_version", Str Sys.ocaml_version);
    ]

(* The validators' check: a [host] object with all three members. *)
let present doc =
  let open Statsutil.Json in
  match member "host" doc with
  | Some h -> (
    Option.bind (member "online_cpus" h) to_float <> None
    && Option.bind (member "recommended_domains" h) to_float <> None
    && match member "ocaml_version" h with Some (Str _) -> true | _ -> false)
  | None -> false
