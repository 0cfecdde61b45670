(* The command-line front end on a malformed instance file: every
   subcommand that loads one reports FILE:LINE: message on stderr and
   exits with status 4, not as an uncaught exception. *)

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
  ]

let suite = [ ("cli", tests) ]
