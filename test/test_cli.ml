(* The command-line front end: a malformed instance file makes every
   subcommand that loads one report FILE:LINE: message on stderr and exit
   with status 4, an out-of-range numeric option is a usage error (status
   124) naming the option — never an uncaught exception — and [explain]
   prints the solve's counters and documents its own exit status. *)

let exe =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name "bin/tvnep_solve.exe")

(* Exit status, stdout and stderr of one CLI run. *)
let run_cli args =
  let out = Filename.temp_file "tvnep_cli" ".out" in
  let err = Filename.temp_file "tvnep_cli" ".err" in
  let code =
    Sys.command (Filename.quote_command exe args ~stdout:out ~stderr:err)
  in
  let read f =
    let s = In_channel.with_open_text f In_channel.input_all in
    Sys.remove f;
    s
  in
  let stdout = read out in
  (code, stdout, read err)

let contains hay needle =
  let n = String.length needle in
  let rec at i =
    i + n <= String.length hay && (String.sub hay i n = needle || at (i + 1))
  in
  at 0

let tests =
  [
    Alcotest.test_case "malformed instance file exits 4 with FILE:LINE"
      `Quick (fun () ->
        if not (Sys.file_exists exe) then Alcotest.skip ();
        let file = Filename.temp_file "tvnep_bad" ".tvnep" in
        Out_channel.with_open_text file (fun oc ->
            output_string oc "tvnep 1\nhorizon nan\n");
        let prefix = file ^ ":2: " in
        List.iter
          (fun sub ->
            let code, _, msg = run_cli [ sub; file ] in
            Alcotest.(check int) (sub ^ " exit status") 4 code;
            let head = min (String.length msg) (String.length prefix) in
            Alcotest.(check string)
              (sub ^ " message prefix") prefix (String.sub msg 0 head))
          [ "solve"; "greedy"; "serve"; "explain"; "show" ];
        Sys.remove file);
    Alcotest.test_case "out-of-range numeric options exit 124 naming them"
      `Quick (fun () ->
        if not (Sys.file_exists exe) then Alcotest.skip ();
        let file = Filename.temp_file "tvnep_ok" ".tvnep" in
        let out = Filename.temp_file "tvnep_gen" ".tvnep" in
        let gen, _, _ = run_cli [ "generate"; "-o"; file; "--requests"; "2" ] in
        Alcotest.(check int) "generate a valid instance" 0 gen;
        List.iter
          (fun (args, opt) ->
            let code, _, msg = run_cli args in
            let what = String.concat " " args in
            Alcotest.(check int) (what ^ " exit status") 124 code;
            Alcotest.(check bool) (what ^ " names " ^ opt) true
              (contains msg (Printf.sprintf "option '%s'" opt)))
          [
            ([ "serve"; "--slice"; "nan" ], "--slice");
            ([ "serve"; "--slice=0" ], "--slice");
            ([ "serve"; "--batch"; "0" ], "--batch");
            ([ "serve"; "--exact-fraction=2" ], "--exact-fraction");
            ([ "serve"; "--events"; "--cancel-prob"; "2" ], "--cancel-prob");
            ([ "serve"; "--move-cost=-1" ], "--move-cost");
            ([ "serve"; "--pricing"; "--price-floor"; "nan" ], "--price-floor");
            ([ "serve"; "--requests"; "0" ], "--requests");
            ([ "serve"; "--jobs=-1" ], "--jobs");
            ([ "generate"; "-o"; out; "--requests"; "0" ], "--requests");
            ([ "generate"; "-o"; out; "--requests=-2" ], "--requests");
            ([ "generate"; "-o"; out; "--flex=-1" ], "--flex");
            ([ "generate"; "-o"; out; "--flex"; "nan" ], "--flex");
            ([ "generate"; "-o"; out; "--rows"; "0" ], "--rows");
            ([ "explain"; "--flexibility"; "nan" ], "--flexibility");
            ([ "solve"; file; "--time-limit"; "nan" ], "--time-limit");
            ( [ "solve"; file; "--model"; "discrete"; "--slot-width"; "0" ],
              "--slot-width" );
          ];
        Sys.remove file;
        Sys.remove out);
    Alcotest.test_case "explain prints counters and documents exit 5" `Quick
      (fun () ->
        if not (Sys.file_exists exe) then Alcotest.skip ();
        let code, out, _ = run_cli [ "explain"; "--requests"; "3" ] in
        Alcotest.(check int) "explain exit status" 0 code;
        let starts p l =
          String.length l >= String.length p
          && String.sub l 0 (String.length p) = p
        in
        let lines = String.split_on_char '\n' out in
        Alcotest.(check bool) "has a counters: line" true
          (List.exists (starts "counters:") lines);
        Alcotest.(check bool) "has no metrics: line" false
          (List.exists (starts "metrics:") lines);
        let code, help, _ = run_cli [ "explain"; "--help=plain" ] in
        Alcotest.(check int) "help exit status" 0 code;
        Alcotest.(check bool) "help documents exit 5" true
          (List.exists
             (fun l -> starts "5 " (String.trim l))
             (String.split_on_char '\n' help)));
  ]

let suite = [ ("cli", tests) ]
