(* ksurf command-line interface: generate corpora and regenerate any of
   the paper's tables and figures from the terminal. *)

open Cmdliner
module E = Ksurf.Experiments
module A = Ksurf.Analysis

let setup_logs level =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level level

let logs_term = Term.(const setup_logs $ Logs_cli.level ())

let seed_arg =
  let doc = "Seed for every pseudo-random stream (runs are reproducible)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let scale_arg =
  let doc = "Experiment scale: $(b,quick) (seconds) or $(b,full) (minutes)." in
  let scale_conv =
    Arg.conv
      ( (fun s ->
          match E.scale_of_string s with
          | Some v -> Ok v
          | None -> Error (`Msg (Printf.sprintf "unknown scale %S" s))),
        fun ppf s ->
          Format.pp_print_string ppf
            (match s with E.Quick -> "quick" | E.Full -> "full") )
  in
  Arg.(value & opt scale_conv E.Quick & info [ "scale" ] ~docv:"SCALE" ~doc)

(* Monotonic, not [Unix.gettimeofday]: an NTP step mid-experiment would
   otherwise corrupt (even negate) the reported duration. *)
let timed name f =
  let t0 = Ksurf.Clock.now_s () in
  let result = f () in
  Logs.info (fun m ->
      m "%s finished in %.1fs" name (Ksurf.Clock.elapsed_s ~since:t0));
  result

(* --- parallel sweeps --------------------------------------------------- *)

let jobs_arg =
  let doc =
    "Worker domains for sweep cells.  Results merge in canonical order, \
     so any $(docv) produces bit-identical output; falls back to \
     $(b,KSURF_JOBS), then to the machine's recommended domain count \
     minus one."
  in
  (* No cmdliner ~env here on purpose: cmdliner would refuse a
     malformed KSURF_JOBS with a hard CLI error, whereas the precedence
     rule (Pool.resolve_jobs) warns on stderr and degrades to the
     machine default. *)
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

(* Pool.resolve_jobs owns the precedence rule: the flag when given,
   else KSURF_JOBS, else the machine default. *)
let with_pool jobs f =
  Ksurf.Pool.with_pool ~jobs:(Ksurf.Pool.resolve_jobs ?cli:jobs ()) f

(* --- resumable sweeps ------------------------------------------------- *)

let journal_arg =
  let doc =
    "Journal completed sweep cells into $(docv) (atomic writes) so an \
     interrupted run can be picked up with $(b,--resume)."
  in
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)

let resume_arg =
  let doc =
    "Skip cells already recorded in the $(b,--journal) file instead of \
     starting the sweep over."
  in
  Arg.(value & flag & info [ "resume" ] ~doc)

(* Without --resume a pre-existing journal is discarded: the sweep is a
   fresh run that happens to be journalled.  All I/O goes through
   Fileio so a bad --journal path exits 3 like every other I/O
   failure, and the journal's directory entry is durable. *)
let journal_of path resume =
  match path with
  | None -> None
  | Some p ->
      Ksurf.Fileio.ensure_dir (Filename.dirname p);
      if (not resume) && Sys.file_exists p then Ksurf.Fileio.remove p;
      Some (Ksurf.Recov_journal.load ~path:p ())

(* A full disk no longer aborts a sweep: the journal defers persists
   and keeps completed cells buffered in memory.  If it is still dirty
   once the sweep is done, the results above are real but the resume
   state is not on disk — stamp the run degraded and exit 3. *)
let finish_journal = function
  | None -> ()
  | Some j ->
      Ksurf.Recov_journal.flush j;
      if Ksurf.Recov_journal.persist_pending j then begin
        Format.eprintf
          "ksurf: DEGRADED: %d journal persist(s) deferred%s; completed \
           cells were kept in memory but the resume state is not durable@."
          (Ksurf.Recov_journal.deferred j)
          (match Ksurf.Recov_journal.last_error j with
          | Some e -> " (" ^ e ^ ")"
          | None -> "");
        exit 3
      end

(* --- corpus ---------------------------------------------------------- *)

let gen_corpus seed scale calls output () =
  let corpus =
    match calls with
    | None -> E.default_corpus ~seed scale
    | Some target_calls ->
        (Ksurf.Generator.run
           ~params:
             {
               Ksurf.Generator.default_params with
               Ksurf.Generator.seed;
               target_calls = Some target_calls;
             }
           ())
          .Ksurf.Generator.corpus
  in
  Format.printf "%a@." Ksurf.Corpus.pp_stats corpus;
  match output with
  | None -> ()
  | Some path ->
      Ksurf.Corpus.save corpus path;
      Format.printf "corpus written to %s@." path

let gen_corpus_cmd =
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the corpus to $(docv).")
  in
  let calls =
    Arg.(
      value
      & opt (some int) None
      & info [ "calls" ] ~docv:"N"
          ~doc:
            "Paper-scale mode: grow the corpus to at least $(docv) call \
             sites after coverage saturates (the paper used 27408).")
  in
  Cmd.v
    (Cmd.info "gen-corpus" ~doc:"Generate a coverage-guided syscall corpus")
    Term.(const gen_corpus $ seed_arg $ scale_arg $ calls $ output $ logs_term)


(* --- environments ----------------------------------------------------- *)

let environments =
  [
    ("native", Ksurf.Env.Native);
    ("multikernel", Ksurf.Env.Multikernel);
    ("kvm", Ksurf.Env.Kvm Ksurf.Virt_config.default);
    ("firecracker", Ksurf.Env.Kvm Ksurf.Lightweight.firecracker);
    ("kata", Ksurf.Env.Kvm Ksurf.Lightweight.kata);
    ("nabla", Ksurf.Env.Kvm Ksurf.Lightweight.nabla);
    ("gvisor", Ksurf.Env.Kvm Ksurf.Lightweight.gvisor);
    ("docker", Ksurf.Env.Docker);
  ]

(* The one --env parser: an unknown name is a bad argument (exit 2),
   reported with the list of valid names. *)
let kind_of_name name =
  match List.assoc_opt name environments with
  | Some kind -> kind
  | None ->
      Format.eprintf "unknown environment %S (%s)@." name
        (String.concat "|" (List.map fst environments));
      exit 2

let env_arg =
  Arg.(
    value & opt string "native"
    & info [ "env" ] ~docv:"ENV"
        ~doc:
          "native | multikernel | kvm | firecracker | kata | nabla | gvisor \
           | docker")

let units_arg default =
  Arg.(
    value & opt int default
    & info [ "units" ] ~docv:"N"
        ~doc:"Isolation units (a Table-1 row: 1,2,4,8,16,32,64).")

(* Replay an arbitrary corpus on an arbitrary deployment. *)
let run_corpus seed file env_name units iterations () =
  let kind = kind_of_name env_name in
  match Ksurf.Corpus.load file with
  | Error e ->
      Format.eprintf "cannot load %s: %s@." file e;
      exit 1
  | Ok corpus ->
      let engine = Ksurf.Engine.create ~seed () in
      let env = Ksurf.Env.deploy ~engine kind (Ksurf.Partition.table1 units) in
      let params =
        { Ksurf.Harness.iterations; warmup_iterations = max 1 (iterations / 10) }
      in
      let result = Ksurf.Harness.run ~env ~corpus ~params () in
      let stats = Ksurf.Study.site_stats result in
      Format.printf
        "corpus %s on %s x%d: %d sites, %d invocations, %s of virtual time@.@."
        file env_name units (Array.length stats)
        (Ksurf.Harness.total_invocations result)
        (Ksurf.Report.duration_ns result.Ksurf.Harness.wall_time_ns);
      Format.printf "stat   %s@." Ksurf.Buckets.header;
      List.iter
        (fun (name, stat) ->
          Format.printf "%-6s %a@." name Ksurf.Buckets.pp
            (Ksurf.Study.bucket_row stat stats))
        [ ("median", Ksurf.Study.Median); ("p99", Ksurf.Study.P99);
          ("max", Ksurf.Study.Max) ]

let run_corpus_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"CORPUS" ~doc:"Corpus file from gen-corpus.")
  in
  let iterations =
    Arg.(
      value & opt int 10
      & info [ "iterations" ] ~docv:"N" ~doc:"Measured corpus repetitions.")
  in
  Cmd.v
    (Cmd.info "run-corpus"
       ~doc:"Replay a corpus file on a chosen deployment and print its \
             latency breakdown")
    Term.(
      const run_corpus $ seed_arg $ file $ env_arg $ units_arg 1 $ iterations
      $ logs_term)

(* --- analyze ---------------------------------------------------------- *)

(* Sanitizer suite: lockdep lock-order validation, determinism replay,
   engine invariant checks and the scenario's own accounting over a
   stock scenario.  Exits 1 on any finding, so every scenario is a
   gate. *)
let analyze seed scenario checks csv () =
  match A.Scenarios.of_string scenario with
  | None ->
      Format.eprintf "unknown scenario %S (%s)@." scenario
        (String.concat "|" (List.map A.Scenarios.to_string A.Scenarios.all));
      exit 2
  | Some sc -> (
      match A.Sanitizer.checks_of_string checks with
      | Error bad ->
          Format.eprintf "unknown check %S (lockdep|determinism|invariants)@."
            bad;
          exit 2
      | Ok [] ->
          Format.eprintf "no checks selected@.";
          exit 2
      | Ok selected ->
          let outcome =
            timed "analyze" (fun () ->
                A.Sanitizer.scenario ~checks:selected sc ~seed)
          in
          let label =
            Printf.sprintf "analyze %s seed=%d" (A.Scenarios.to_string sc) seed
          in
          Format.printf "%a@." (A.Sanitizer.pp_outcome ~label) outcome;
          (match csv with
          | None -> ()
          | Some path ->
              (* I/O trouble surfaces as Fileio.Io_error and exits 3
                 through the shared handler, like every subcommand. *)
              A.Finding.export_csv ~path outcome.A.Sanitizer.findings;
              Format.printf "findings written to %s@." path);
          if outcome.A.Sanitizer.findings <> [] then exit 1)

let analyze_cmd =
  let scenario =
    Arg.(
      value & opt string "varbench"
      & info [ "scenario" ] ~docv:"SCENARIO"
          ~doc:
            (Printf.sprintf
               "Scenario to instrument, one of %s.  $(b,inversion) is a \
                deliberate lock-order inversion that self-tests the \
                analyzer; every other scenario must come out clean."
               (String.concat ", "
                  (List.map
                     (fun sc -> "$(b," ^ A.Scenarios.to_string sc ^ ")")
                     A.Scenarios.all))))
  in
  let checks =
    Arg.(
      value
      & opt string "lockdep,determinism,invariants"
      & info [ "check" ] ~docv:"CHECKS"
          ~doc:
            "Comma-separated checks to run: $(b,lockdep), $(b,determinism), \
             $(b,invariants).")
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Export the findings to $(docv).")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Run the sanitizer suite (lockdep, determinism, invariants) over a \
          stock scenario; exit nonzero on any finding")
    Term.(const analyze $ seed_arg $ scenario $ checks $ csv $ logs_term)

(* --- inject ----------------------------------------------------------- *)

(* Fault-injection driver: arm a kfault plan over a varbench deployment
   under the sanitizer harness, report the injection counters, then the
   outcome as [analyze] prints it.  Exits 1 on any finding or hash
   divergence. *)
let inject seed plan_name env_name units intensity () =
  let plan =
    match Ksurf.Fault_plan.preset plan_name with
    | Some p -> p
    | None -> (
        match Ksurf.Fault_plan.load plan_name with
        | Ok p -> p
        | Error e ->
            Format.eprintf
              "cannot load plan %S: %s (presets: %s)@." plan_name e
              (String.concat ", " (List.map fst Ksurf.Fault_plan.presets));
            exit 2)
  in
  let kind = kind_of_name env_name in
  let plan =
    if intensity = 1.0 then plan else Ksurf.Fault_plan.scale intensity plan
  in
  let corpus = E.default_corpus ~seed E.Quick in
  let params = { Ksurf.Harness.iterations = 6; warmup_iterations = 1 } in
  let o =
    timed "inject" (fun () ->
        A.Sanitizer.check (fun ~on_engine ->
            let engine = Ksurf.Engine.create ~seed () in
            on_engine engine;
            let env =
              Ksurf.Env.deploy ~engine kind (Ksurf.Partition.table1 units)
            in
            let kf = Ksurf.Kfault.arm ~env ~plan ~seed () in
            let result =
              Ksurf.Harness.run ~env ~corpus ~params ~straggler_timeout_ns:5e9
                ()
            in
            Ksurf.Kfault.disarm kf;
            (result, Ksurf.Kfault.stats kf, Ksurf.Kfault.total_injections kf)))
  in
  Option.iter
    (fun (result, stats, injections) ->
      Format.printf
        "%d sites, %d invocations, %s of virtual time, %d injections@."
        (Array.length result.Ksurf.Harness.sites)
        (Ksurf.Harness.total_invocations result)
        (Ksurf.Report.duration_ns result.Ksurf.Harness.wall_time_ns)
        injections;
      Format.printf "%a@." Ksurf.Kfault.pp_stats stats;
      Format.printf "harness: %d retries, %d abandoned, %s@."
        result.Ksurf.Harness.transient_retries
        result.Ksurf.Harness.abandoned_calls
        (if result.Ksurf.Harness.degraded then
           Printf.sprintf "DEGRADED (%d/%d ranks survived)"
             result.Ksurf.Harness.survivors result.Ksurf.Harness.ranks
         else "all ranks survived"))
    o.A.Sanitizer.result;
  let label =
    Printf.sprintf "inject plan=%s dose=%.2f env=%s units=%d seed=%d"
      plan.Ksurf.Fault_plan.name intensity env_name units seed
  in
  Format.printf "%a@." (A.Sanitizer.pp_outcome ~label) o;
  if o.A.Sanitizer.findings <> [] then exit 1

let inject_cmd =
  let plan =
    Arg.(
      value & opt string "mixed"
      & info [ "plan" ] ~docv:"PLAN"
          ~doc:
            "Fault plan: a preset name ($(b,syscalls), $(b,storms), \
             $(b,preempt), $(b,mixed), $(b,crashy)) or a plan file path.")
  in
  let intensity =
    Arg.(
      value & opt float 1.0
      & info [ "intensity" ] ~docv:"K"
          ~doc:"Scale the plan's dose by $(docv) (see Fault_plan.scale).")
  in
  Cmd.v
    (Cmd.info "inject"
       ~doc:
         "Run a fault-injected varbench deployment twice; verify the \
          injections replay bit-identically and pass lockdep/invariants; \
          exit nonzero on any finding")
    Term.(
      const inject $ seed_arg $ plan $ env_arg $ units_arg 2 $ intensity
      $ logs_term)

(* --- staticcheck ------------------------------------------------------ *)

(* kstat driver.  Everything is derived from the syscall table without
   running the simulator; [--spec] additionally generates the named
   stock workload's corpus (cheap) to verify its profile-derived
   allowlist.  Any finding — a lock-order cycle, an allowlist gap or
   slack, pruned-machinery hazard — exits nonzero, so `make
   staticcheck` gates on it. *)
let staticcheck seed scale table locks interference spec_workload csv_dir () =
  let module S = Ksurf.Staticcheck in
  let show_all =
    (not table) && (not locks) && (not interference) && spec_workload = None
  in
  let findings = ref [] in
  if table || show_all then begin
    let fps = Ksurf.Footprint.all () in
    Format.printf "static footprints (%d syscalls):@." (List.length fps);
    List.iter (fun fp -> Format.printf "  %a@." Ksurf.Footprint.pp fp) fps
  end;
  if locks || show_all then begin
    let graph = Ksurf.Lockgraph.of_table () in
    Format.printf "%a@." Ksurf.Lockgraph.pp graph;
    findings := !findings @ Ksurf.Lockgraph.cycles graph
  end;
  if interference || show_all then
    Format.printf "%a@." Ksurf.Interference.pp (Ksurf.Interference.of_table ());
  (match spec_workload with
  | None -> ()
  | Some w ->
      let name, keep, corpus =
        match w with
        | "full" -> ("full", Ksurf.Category.all, E.default_corpus ~seed E.Quick)
        | "fs" ->
            ("fs", E.Specialize.retained, E.Specialize.workload ~seed ~scale ())
        | other ->
            Format.eprintf "unknown workload %S (expected full or fs)@." other;
            exit 2
      in
      let profile = Ksurf.Profile.of_corpus ~name corpus in
      let spec = Ksurf.Specializer.compile profile in
      let config = Ksurf.Specializer.kernel_config spec in
      let report =
        S.verify ~workload:name ~keep ~profile ~spec ~config ()
      in
      Format.printf "%a@." S.pp_spec_report report;
      findings := !findings @ report.S.findings);
  (match csv_dir with
  | None -> ()
  | Some dir ->
      List.iter
        (fun p -> Logs.app (fun m -> m "wrote %s" p))
        (S.export_csv ~dir ()));
  if !findings <> [] then begin
    Format.printf "staticcheck: %d finding(s)@." (List.length !findings);
    exit 1
  end

let staticcheck_cmd =
  let table =
    Arg.(
      value & flag
      & info [ "table" ] ~doc:"Print the per-call static footprint table.")
  in
  let locks =
    Arg.(
      value & flag
      & info [ "locks" ]
          ~doc:
            "Print the static lock-order graph and certify it cycle-free \
             (exit nonzero on a potential-deadlock cycle).")
  in
  let interference =
    Arg.(
      value & flag
      & info [ "interference" ]
          ~doc:
            "Print the static interference matrix: call pairs that can \
             contend on the same instance-global lock.")
  in
  let spec_workload =
    Arg.(
      value
      & opt (some string) None
      & info [ "spec" ] ~docv:"WORKLOAD"
          ~doc:
            "Verify the profile-derived allowlist of a stock workload \
             ($(b,full) or $(b,fs)): flag gaps, slack and pruned-machinery \
             hazards, and print static vs dynamic surface area.")
  in
  let csv_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR"
          ~doc:
            "Write static_footprints.csv, static_lock_graph.csv and \
             static_interference.csv into $(docv).")
  in
  Cmd.v
    (Cmd.info "staticcheck"
       ~doc:
         "kstat: static footprints, lock-order certification, interference \
          matrix and allowlist verification over the syscall model — no \
          simulation involved; exits nonzero on findings")
    Term.(
      const staticcheck $ seed_arg $ scale_arg $ table $ locks $ interference
      $ spec_workload $ csv_dir $ logs_term)


(* --- torture ------------------------------------------------------------ *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* --- study registry ------------------------------------------------------ *)

(* What the registry hands a study run: the shared flags, the corpus
   [all] shares across the paper studies, the --journal and the pool. *)
type ctx = {
  seed : int;
  scale : E.scale;
  corpus : Ksurf.Corpus.t option;
  journal : Ksurf.Recov_journal.t option;
  pool : Ksurf.Pool.t;
}

(* One study subcommand.  [run] is a term so that a study's own flags
   are parsed into it.  [export] adds --export, [journalled] adds
   --journal and --resume, and [seeded = false] (Table 1, a fixed
   configuration) drops --seed, --scale and --jobs.  [failed] turns a
   completed study into exit 1 with its one-line reason. *)
type study =
  | Study : {
      name : string;
      doc : string;
      run : (ctx -> 'a) Term.t;
      pp : Format.formatter -> 'a -> unit;
      export : (dir:string -> 'a -> string list) option;
      journalled : bool;
      seeded : bool;
      failed : 'a -> string option;
    }
      -> study

let study ?export ?(journalled = false) ?(seeded = true)
    ?(failed = fun _ -> None) name ~doc pp run =
  Study { name; doc; run; pp; export; journalled; seeded; failed }

(* The nine paper studies, in the order [all] prints them. *)
let paper_studies =
  [
    study "table1" ~seeded:false
      ~doc:"Print the VM configuration sweep (Table 1)" E.Table1.pp
      (Term.const (fun _ -> E.Table1.run ()));
    study "table2" ~doc:"Syscall latency breakdown (Table 2)" E.Table2.pp
      (Term.const (fun c ->
           E.Table2.run ~seed:c.seed ~scale:c.scale ?corpus:c.corpus
             ~pool:c.pool ()));
    study "fig2" ~doc:"Per-subsystem p99 vs VM count (Figure 2)" E.Fig2.pp
      (Term.const (fun c ->
           E.Fig2.run ~seed:c.seed ~scale:c.scale ?corpus:c.corpus
             ~pool:c.pool ()));
    study "table3" ~doc:"Container worst-case breakdown (Table 3)" E.Table3.pp
      (Term.const (fun c ->
           E.Table3.run ~seed:c.seed ~scale:c.scale ?corpus:c.corpus
             ~pool:c.pool ()));
    study "fig3" ~doc:"Single-node tail latency (Figure 3)" E.Fig3.pp
      (Term.const (fun c ->
           E.Fig3.run ~seed:c.seed ~scale:c.scale ?corpus:c.corpus
             ~pool:c.pool ()));
    study "fig4" ~doc:"64-node BSP runtimes (Figure 4)" E.Fig4.pp
      (Term.const (fun c ->
           E.Fig4.run ~seed:c.seed ~scale:c.scale ?corpus:c.corpus
             ~pool:c.pool ()));
    study "ablate" ~doc:"E7: variability-mechanism knockouts" E.Ablate.pp
      (Term.const (fun c ->
           E.Ablate.run ~seed:c.seed ~scale:c.scale ?corpus:c.corpus
             ~pool:c.pool ()));
    study "ablate-virt" ~doc:"E8: exit-cost sensitivity sweep" E.Ablate_virt.pp
      (Term.const (fun c ->
           E.Ablate_virt.run ~seed:c.seed ~scale:c.scale ?corpus:c.corpus
             ~pool:c.pool ()));
    study "lwvm" ~doc:"E9: lightweight-VM technology comparison" E.Lwvm.pp
      (Term.const (fun c ->
           E.Lwvm.run ~seed:c.seed ~scale:c.scale ?corpus:c.corpus
             ~pool:c.pool ()));
  ]

let some_list = function [] -> None | l -> Some l

(* A comma-separated flag's names, each parsed by [of_string]; an
   unknown name exits 2 with [expected] in the message. *)
let parse_names ~what ~expected of_string names =
  Option.map
    (List.map (fun s ->
         match of_string s with
         | Some v -> v
         | None ->
             Format.eprintf "unknown %s %S (%s)@." what s expected;
             exit 2))
    (some_list names)

let list_arg elt opt_name ~docv ~doc =
  Arg.(value & opt (list elt) [] & info [ opt_name ] ~docv ~doc)

let tenancy_study =
  let tenants =
    list_arg Arg.int "tenants" ~docv:"N,..."
      ~doc:"Tenant counts to sweep (default depends on --scale)."
  in
  let churns =
    list_arg Arg.float "churn" ~docv:"R,..."
      ~doc:
        "Per-tenant churn rates to sweep, in lifecycle events per tenant \
         per virtual day (default depends on --scale)."
  in
  let policies =
    list_arg Arg.string "policy" ~docv:"P,..."
      ~doc:
        "Placement policies to sweep: $(b,native-shared), $(b,docker), \
         $(b,kvm), $(b,multikernel) or $(b,adaptive) (default: all)."
  in
  let run tenants churns policies c =
    let policies =
      parse_names ~what:"policy"
        ~expected:(String.concat "|" Ksurf.Tenant_policy.names)
        Ksurf.Tenant_policy.of_string policies
    in
    E.Tenancy.run ~seed:c.seed ~scale:c.scale ?tenants:(some_list tenants)
      ?churns:(some_list churns) ?policies ?journal:c.journal ~pool:c.pool ()
  in
  study "tenancy" ~export:Ksurf.Export.tenancy ~journalled:true
    ~doc:
      "ktenant study: fleet-scale multi-tenant serving under churn and \
       diurnal load — placement policy x tenant count x churn rate, with \
       per-tenant p99 SLO autoscaling"
    E.Tenancy.pp
    Term.(const run $ tenants $ churns $ policies)

let drift_study =
  let doses =
    list_arg Arg.float "dose" ~docv:"D,..."
      ~doc:
        "Drift doses to sweep; the injected mix shift is dose x 0.25 \
         (default: 0,1,2,3)."
  in
  let policies =
    list_arg Arg.string "policy" ~docv:"P,..."
      ~doc:
        "Policies to sweep: $(b,static), $(b,audit) or $(b,adaptive) \
         (default: all)."
  in
  let run doses policies c =
    let policies =
      parse_names ~what:"policy" ~expected:"static|audit|adaptive"
        Ksurf.Driftbench.policy_of_string policies
    in
    E.Drift.run ~seed:c.seed ~scale:c.scale ?doses:(some_list doses)
      ?policies ?journal:c.journal ~pool:c.pool ()
  in
  (* A drifted cell whose run ended before the trigger measured nothing
     about drift: its fp rate is the whole-run denial rate. *)
  let failed t =
    match E.Drift.undrifted t with
    | [] -> None
    | cells ->
        Some
          (Printf.sprintf "drift never fired in %s: the run ended first"
             (String.concat ", "
                (List.map
                   (fun (c : E.Drift.cell) ->
                     Printf.sprintf "%s@%.1f" c.Ksurf.Driftbench.policy
                       c.Ksurf.Driftbench.dose)
                   cells)))
  in
  study "drift" ~export:Ksurf.Export.drift ~journalled:true ~failed
    ~doc:
      "kadapt study: online adaptive specialization under workload drift — \
       policy x dose, tabling false-positive ENOSYS rate vs retained \
       surface area vs time-to-reconverge"
    E.Drift.pp
    Term.(const run $ doses $ policies)

let torture_study =
  let doses =
    list_arg Arg.float "dose" ~docv:"D,..."
      ~doc:
        "Fault doses to sweep; dose scales the io-mixed plan's rates and \
         ENOSPC window, 0 is the fault-free control (default: 0,1,2,3)."
  in
  let kinds =
    list_arg Arg.string "path" ~docv:"P,..."
      ~doc:
        "Durable writer paths to torture: $(b,journal), $(b,checkpoint), \
         $(b,export) (default: all)."
  in
  let run doses kinds c =
    let kinds =
      parse_names ~what:"writer path" ~expected:"journal|checkpoint|export"
        Ksurf.Torture.kind_of_name kinds
    in
    let scratch =
      E.Torture.default_scratch ^ "." ^ string_of_int (Unix.getpid ())
    in
    Fun.protect
      ~finally:(fun () -> rm_rf scratch)
      (fun () ->
        E.Torture.run ~seed:c.seed ~scale:c.scale ?doses:(some_list doses)
          ?kinds ~scratch
          ?journal:c.journal ~pool:c.pool ())
  in
  study "torture" ~export:Ksurf.Export.torture ~journalled:true
    ~failed:(fun t ->
      match E.Torture.violations t with
      | 0 -> None
      | n -> Some (Printf.sprintf "%d consistency violations" n))
    ~doc:
      "kdur study: host-I/O fault injection and crash-consistency torture \
       — writer path x dose, enumerating every crash state and recovering \
       every live faulted run"
    E.Torture.pp
    Term.(const run $ doses $ kinds)

let studies =
  paper_studies
  @ [
      study "locks" ~doc:"E10: per-lock contention attribution" E.Locks.pp
        (Term.const (fun c ->
             E.Locks.run ~seed:c.seed ~scale:c.scale ~pool:c.pool ()));
      study "dose" ~journalled:true
        ~doc:"Dose-response: fault-intensity sensitivity sweep" E.Dose.pp
        (Term.const (fun c ->
             E.Dose.run ~seed:c.seed ~scale:c.scale ?journal:c.journal
               ~pool:c.pool ()));
      study "specialize" ~export:Ksurf.Export.specialize ~journalled:true
        ~doc:
          "kspec study: per-tenant specialized kernels (multikernel) vs \
           shared native vs kvm-64 on the same fs-restricted workload"
        E.Specialize.pp
        (Term.const (fun c ->
             E.Specialize.run ~seed:c.seed ~scale:c.scale ?journal:c.journal
               ~pool:c.pool ()));
      study "recover" ~export:Ksurf.Export.recover ~journalled:true
        ~doc:
          "krecov study: crash rate x recovery policy on the supervised \
           64-node BSP synthesis"
        E.Recover.pp
        (Term.const (fun c ->
             E.Recover.run ~seed:c.seed ~scale:c.scale ?journal:c.journal
               ~pool:c.pool ()));
      tenancy_study;
      drift_study;
      torture_study;
    ]

(* The registry writes the shared flags, journalling, pool, timing and
   --export listing once for every study subcommand. *)
let study_cmd (Study s) =
  let export =
    match s.export with
    | None -> Term.const None
    | Some _ ->
        Arg.(
          value
          & opt (some string) None
          & info [ "export" ] ~docv:"DIR"
              ~doc:
                (Printf.sprintf "Write %s.csv into $(docv) (study mode only)."
                   s.name))
  in
  let journal, resume =
    if s.journalled then (journal_arg, resume_arg)
    else (Term.const None, Term.const false)
  in
  let seed, scale, jobs =
    if s.seeded then (seed_arg, scale_arg, jobs_arg)
    else (Term.const 42, Term.const E.Quick, Term.const (Some 1))
  in
  let go seed scale export_dir journal_path resume jobs run () =
    let journal = journal_of journal_path resume in
    let t =
      with_pool jobs (fun pool ->
          timed s.name (fun () ->
              run { seed; scale; corpus = None; journal; pool }))
    in
    Format.printf "%a@." s.pp t;
    (match (s.export, export_dir) with
    | Some export, Some dir ->
        List.iter (fun p -> Format.printf "wrote %s@." p) (export ~dir t)
    | _ -> ());
    finish_journal journal;
    Option.iter
      (fun why ->
        Format.eprintf "ksurf: %s: %s@." s.name why;
        exit 1)
      (s.failed t)
  in
  Cmd.v (Cmd.info s.name ~doc:s.doc)
    Term.(
      const go $ seed $ scale $ export $ journal $ resume $ jobs $ s.run
      $ logs_term)

let all_cmd =
  let print (Study s) =
    Term.(const (fun run c -> Format.printf "%a@." s.pp (run c)) $ s.run)
  in
  let prints =
    List.fold_right
      (fun s rest -> Term.(const List.cons $ print s $ rest))
      paper_studies (Term.const [])
  in
  let go seed scale jobs prints () =
    with_pool jobs (fun pool ->
        timed "all" (fun () ->
            let corpus = Some (E.default_corpus ~seed scale) in
            List.iteri
              (fun i print ->
                if i > 0 then Format.printf "@.";
                print { seed; scale; corpus; journal = None; pool })
              prints))
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Run every experiment in sequence")
    Term.(const go $ seed_arg $ scale_arg $ jobs_arg $ prints $ logs_term)

let main_cmd =
  let doc =
    "reproduce 'Reducing Kernel Surface Areas for Isolation and \
     Scalability' (ICPP'19) on a simulated multicore machine"
  in
  Cmd.group (Cmd.info "ksurf" ~version:"1.0.0" ~doc)
    ([
       gen_corpus_cmd;
       run_corpus_cmd;
       analyze_cmd;
       inject_cmd;
       staticcheck_cmd;
     ]
    @ List.map study_cmd studies
    @ [ all_cmd ])

(* I/O failures (full disk, bad permissions, unwritable directory) get
   their own exit code so scripts can tell "the experiment found
   something" (1) and "you asked for something impossible" (2) apart
   from "the machine failed underneath us" (3). *)
let () =
  try exit (Cmd.eval ~catch:false main_cmd) with
  | Ksurf.Fileio.Io_error msg ->
      Format.eprintf "ksurf: I/O failure: %s@." msg;
      exit 3
  | Ksurf.Engine.Hung diag ->
      Format.eprintf "ksurf: %s@." diag;
      exit 1
