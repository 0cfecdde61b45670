(* The command-line front end on bad input: a malformed instance file
   makes every subcommand that loads one report FILE:LINE: message on
   stderr and exit with status 4, and an out-of-range numeric option is a
   usage error (status 124) naming the option — never an uncaught
   exception. *)

let exe =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name "bin/tvnep_solve.exe")

let run_cli args =
  let err = Filename.temp_file "tvnep_cli" ".err" in
  let code =
    Sys.command
      (Filename.quote_command exe args ~stdout:Filename.null ~stderr:err)
  in
  let msg = In_channel.with_open_text err In_channel.input_all in
  Sys.remove err;
  (code, msg)

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
            let code, msg = run_cli [ sub; file ] in
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
        Alcotest.(check int) "generate a valid instance" 0
          (fst (run_cli [ "generate"; "-o"; file; "--requests"; "2" ]));
        List.iter
          (fun (args, opt) ->
            let code, msg = run_cli args in
            let what = String.concat " " args in
            Alcotest.(check int) (what ^ " exit status") 124 code;
            let needle = Printf.sprintf "option '%s'" opt in
            let has =
              let n = String.length needle in
              let rec at i =
                i + n <= String.length msg
                && (String.sub msg i n = needle || at (i + 1))
              in
              at 0
            in
            Alcotest.(check bool) (what ^ " names " ^ opt) true has)
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
  ]

let suite = [ ("cli", tests) ]
