(* Names every deterministic field of the bench files that moved against
   the committed copies.

     dune exec bench/bench_diff.exe [FILE ...]

   Run from the repository root, after regenerating the files (e.g.
   `make check`).  For each FILE (default: every BENCH_*.json in the
   current directory) the working-tree document is compared with
   `git show HEAD:FILE`, and every JSON path whose value differs is
   printed with its old and new value.  Only the measurements that vary
   from run to run are ignored, wherever they occur: `host`, `wall_s`,
   `gc_minor_words` and every key ending in `_us`.  Exit status: 0 when
   nothing else moved, 1 when a field moved, 2 when a file cannot be
   read or parsed. *)

module Json = Statsutil.Json

let volatile key =
  List.mem key [ "host"; "wall_s"; "gc_minor_words" ]
  || String.ends_with ~suffix:"_us" key

let show = function
  | None -> "(absent)"
  | Some v ->
    let s = Json.to_compact_string v in
    if String.length s <= 60 then s else String.sub s 0 57 ^ "..."

(* Paths (in document order) whose values differ between [a] and [b]. *)
let rec diff path a b =
  match (a, b) with
  | Json.Obj fa, Json.Obj fb ->
    let keys =
      List.map fst fa
      @ List.filter (fun k -> not (List.mem_assoc k fa)) (List.map fst fb)
    in
    List.concat_map
      (fun k ->
        let p = if path = "" then k else path ^ "." ^ k in
        match (List.assoc_opt k fa, List.assoc_opt k fb) with
        | _ when volatile k -> []
        | Some x, Some y -> diff p x y
        | x, y -> [ (p, x, y) ])
      keys
  | Json.List la, Json.List lb ->
    let rec walk i la lb =
      let p = Printf.sprintf "%s[%d]" path i in
      match (la, lb) with
      | [], [] -> []
      | x :: la, y :: lb -> diff p x y @ walk (i + 1) la lb
      | x :: la, [] -> (p, Some x, None) :: walk (i + 1) la []
      | [], y :: lb -> (p, None, Some y) :: walk (i + 1) [] lb
    in
    walk 0 la lb
  | _ -> if a = b then [] else [ (path, Some a, Some b) ]

let read_process args =
  let ic = Unix.open_process_args_in args.(0) args in
  let text = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> Ok text
  | _ -> Error (String.concat " " (Array.to_list args) ^ " failed")

let parse what = function
  | Error e -> Error e
  | Ok text ->
    Result.map_error (fun e -> what ^ ": " ^ e) (Json.of_string text)

let () =
  let files =
    match List.tl (Array.to_list Sys.argv) with
    | [] ->
      Sys.readdir "." |> Array.to_list
      |> List.filter (fun f ->
             String.starts_with ~prefix:"BENCH_" f
             && Filename.check_suffix f ".json")
      |> List.sort compare
    | files -> files
  in
  let worst = ref 0 in
  List.iter
    (fun file ->
      let committed =
        parse ("HEAD:" ^ file)
          (read_process [| "git"; "show"; "HEAD:" ^ file |])
      and current =
        parse file
          (try Ok (In_channel.with_open_bin file In_channel.input_all)
           with Sys_error e -> Error e)
      in
      match (committed, current) with
      | Error e, _ | _, Error e ->
        Printf.printf "%s: %s\n" file e;
        worst := 2
      | Ok old_doc, Ok new_doc -> (
        match diff "" old_doc new_doc with
        | [] -> Printf.printf "%s: no deterministic field moved\n" file
        | moved ->
          List.iter
            (fun (p, x, y) ->
              Printf.printf "%s: %s: %s -> %s\n" file p (show x) (show y))
            moved;
          worst := max !worst 1))
    files;
  exit !worst
