(* CLI exit-code discipline: 0 success, 1 findings, 2 bad arguments,
   3 I/O failure.  Every subcommand that touches the filesystem must
   map file-system trouble to exit 3 through the one shared handler —
   pointing output at a path under /dev/null fails fast in
   Fileio.ensure_dir, so these spawns stay cheap even for commands
   whose happy path is a long sweep. *)

let cli = Filename.concat (Filename.concat ".." "bin") "ksurf_cli.exe"

let run args =
  let null = " >/dev/null 2>/dev/null" in
  (* Other suites in this process putenv KSURF_JOBS to junk on purpose;
     children would inherit it and die in cmdliner's env parsing. *)
  Sys.command
    ("unset KSURF_JOBS; exec " ^ Filename.quote cli ^ " " ^ args ^ null)

let check_exit name expected args =
  Alcotest.(check int) name expected (run args)

let test_io_failure_exits_3 () =
  List.iter
    (fun (name, args) -> check_exit name 3 args)
    [
      ("gen-corpus -o", "gen-corpus -o /dev/null/x/corpus");
      ("analyze --csv", "analyze --csv /dev/null/x/findings.csv");
      ("staticcheck --csv", "staticcheck --locks --csv /dev/null/x");
      ("dose --journal", "dose --journal /dev/null/x/sweep.journal");
      ("recover --journal", "recover --journal /dev/null/x/sweep.journal");
      ("tenancy --journal", "tenancy --journal /dev/null/x/sweep.journal");
      ("drift --journal", "drift --journal /dev/null/x/sweep.journal");
      ( "torture --export",
        "torture --dose 0 --path export --export /dev/null/x" );
      ( "specialize --journal",
        "specialize --journal /dev/null/x/sweep.journal" );
    ]

let test_bad_args_exit_2 () =
  List.iter
    (fun (name, args) -> check_exit name 2 args)
    [
      ("torture bad path", "torture --path bogus");
      ("analyze bad scenario", "analyze --scenario bogus");
      ("drift bad policy", "drift --policy bogus --dose 0");
      ("inject bad env", "inject --env bogus");
      ("run-corpus bad env", "run-corpus missing.corpus --env bogus");
    ]

(* Findings, accounting failures and a drift study whose drift never
   fired all exit 1. *)
let test_findings_exit_1 () =
  List.iter
    (fun (name, args) -> check_exit name 1 args)
    [
      ("analyze inversion", "analyze --scenario inversion");
      ("drift never fires", "drift --seed 13 --dose 1 --policy static");
    ]

(* The --scenario documentation is generated from the scenario list, so
   a new scenario cannot go missing from --help. *)
let test_analyze_help_names_every_scenario () =
  let out = Filename.temp_file "ksurf_help" ".txt" in
  let code =
    Sys.command
      ("unset KSURF_JOBS; exec " ^ Filename.quote cli
     ^ " analyze --help=plain >" ^ Filename.quote out ^ " 2>/dev/null")
  in
  let help = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  Alcotest.(check int) "help exits 0" 0 code;
  let words =
    String.split_on_char '\n' help
    |> List.concat_map (String.split_on_char ' ')
  in
  List.iter
    (fun sc ->
      let name = Ksurf_analysis.Scenarios.to_string sc in
      let listed =
        List.exists
          (fun w -> w = name || w = name ^ "," || w = name ^ ".")
          words
      in
      Alcotest.(check bool) (name ^ " listed") true listed)
    Ksurf_analysis.Scenarios.all

let test_success_exits_0 () =
  List.iter
    (fun (name, args) -> check_exit name 0 args)
    [
      ("torture control cell", "torture --dose 0 --path export");
      ("analyze tenancy", "analyze --scenario tenancy");
    ]

let suite =
  [
    Alcotest.test_case "io failures exit 3" `Quick test_io_failure_exits_3;
    Alcotest.test_case "bad arguments exit 2" `Quick test_bad_args_exit_2;
    Alcotest.test_case "findings exit 1" `Quick test_findings_exit_1;
    Alcotest.test_case "success exits 0" `Quick test_success_exits_0;
    Alcotest.test_case "analyze help names every scenario" `Quick
      test_analyze_help_names_every_scenario;
  ]
