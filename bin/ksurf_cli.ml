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
     malformed KSURF_JOBS with a hard CLI error, whereas the shared
     precedence rule (Pool.resolve_jobs) warns on stderr and degrades
     to the machine default — same behaviour as bench/main.exe. *)
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


(* A tiny corpus of [programs] coverage-guided programs: the gates'
   workload size. *)
let gate_corpus ~seed programs =
  (Ksurf.Generator.run
     ~params:
       {
         Ksurf.Generator.default_params with
         Ksurf.Generator.seed;
         target_programs = programs;
       }
     ())
    .Ksurf.Generator.corpus

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
   and engine invariant checks over a stock scenario.  Exits 1 on any
   finding so it can gate CI. *)
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
                A.Sanitizer.check ~checks:selected (A.Scenarios.run sc ~seed))
          in
          Format.printf "%a@."
            (A.Sanitizer.pp_outcome ~scenario:sc ~seed)
            outcome;
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
            "Scenario to instrument: $(b,varbench), $(b,tailbench), $(b,bsp), \
             $(b,faulted-varbench), $(b,faulted-tailbench) (the same \
             workloads under an armed kfault plan), \
             $(b,specialized-varbench) (kspec-pruned multikernel deployment \
             with the Enforce allowlist installed), $(b,recovered-bsp) (the \
             supervised BSP synthesis failing over under the crashy plan), \
             or $(b,inversion) (a deliberate lock-order inversion that \
             self-tests the analyzer).")
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

(* --- sanitizer gates -------------------------------------------------- *)

(* The shared tail of every gate: the replay line, the gate's own
   accounting failures, the sanitizer findings, then exit 1 or the
   gate's all-clear line. *)
let gate_verdict ?(failures = []) ~clean o =
  Option.iter
    (fun d -> Format.printf "  %a@." A.Sanitizer.pp_replay d)
    o.A.Sanitizer.replay;
  List.iter (fun m -> Format.printf "  FAIL: %s@." m) failures;
  List.iter
    (fun f -> Format.printf "  %a@." A.Finding.pp f)
    o.A.Sanitizer.findings;
  if failures <> [] || o.A.Sanitizer.findings <> [] then exit 1;
  Format.printf "  no findings: %s@." clean

(* Every --smoke gate runs its workload through the one sanitizer
   harness: two runs, lockdep + invariants on the first, determinism
   across both.  A crash on either run leaves no result to account
   for; it is a finding, so the verdict exits 1 at once. *)
let sanitized name workload =
  let o = timed name (fun () -> A.Sanitizer.check workload) in
  match o.A.Sanitizer.result with
  | Some r -> (o, r)
  | None ->
      gate_verdict o ~clean:"";
      exit 1

(* An accounting check: [Some message] when it fails. *)
let bad fmt = Format.kasprintf Option.some fmt

let gate_flag name doc = Arg.(value & flag & info [ name ] ~doc)

(* --- inject ----------------------------------------------------------- *)

(* Fault-injection driver: arm a kfault plan over a varbench deployment
   under the sanitizer harness and report the injection counters and
   the replay hashes.  Exits 1 on any finding or hash divergence — the
   [--smoke] form is the `make check` gate. *)
let inject seed plan_name env_name units intensity smoke () =
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
  let corpus =
    if smoke then gate_corpus ~seed 4 else E.default_corpus ~seed E.Quick
  in
  let params =
    if smoke then { Ksurf.Harness.iterations = 2; warmup_iterations = 1 }
    else { Ksurf.Harness.iterations = 6; warmup_iterations = 1 }
  in
  let o, (result, stats, injections) =
    sanitized "inject" (fun ~on_engine ->
        let engine = Ksurf.Engine.create ~seed () in
        on_engine engine;
        let env =
          Ksurf.Env.deploy ~engine kind (Ksurf.Partition.table1 units)
        in
        let kf = Ksurf.Kfault.arm ~env ~plan ~seed () in
        let result =
          Ksurf.Harness.run ~env ~corpus ~params ~straggler_timeout_ns:5e9 ()
        in
        Ksurf.Kfault.disarm kf;
        (result, Ksurf.Kfault.stats kf, Ksurf.Kfault.total_injections kf))
  in
  Format.printf "inject plan=%s dose=%.2f env=%s units=%d seed=%d@."
    plan.Ksurf.Fault_plan.name intensity env_name units seed;
  Format.printf
    "  %d sites, %d invocations, %s of virtual time, %d injections@."
    (Array.length result.Ksurf.Harness.sites)
    (Ksurf.Harness.total_invocations result)
    (Ksurf.Report.duration_ns result.Ksurf.Harness.wall_time_ns)
    injections;
  Format.printf "  %a@." Ksurf.Kfault.pp_stats stats;
  Format.printf "  harness: %d retries, %d abandoned, %s@."
    result.Ksurf.Harness.transient_retries
    result.Ksurf.Harness.abandoned_calls
    (if result.Ksurf.Harness.degraded then
       Printf.sprintf "DEGRADED (%d/%d ranks survived)"
         result.Ksurf.Harness.survivors result.Ksurf.Harness.ranks
     else "all ranks survived");
  gate_verdict o ~clean:"faulted run is deterministic and clean"

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
  let smoke =
    gate_flag "smoke"
      "Tiny corpus and iteration count: the CI gate configuration."
  in
  Cmd.v
    (Cmd.info "inject"
       ~doc:
         "Run a fault-injected varbench deployment twice; verify the \
          injections replay bit-identically and pass lockdep/invariants; \
          exit nonzero on any finding")
    Term.(
      const inject $ seed_arg $ plan $ env_arg $ units_arg 2 $ intensity $ smoke
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


(* --- gates -------------------------------------------------------------- *)

(* kspec gate for `make check`: the specialized deployment under the
   sanitizer harness.  A policy denial (the allowlist matches the
   corpus, so any denial is a wiring bug), a replay divergence or any
   sanitizer finding exits nonzero. *)
let specialize_smoke seed =
  let corpus =
    let full = gate_corpus ~seed 8 in
    match Ksurf.Profile.restrict full ~keep:E.Specialize.retained with
    | Some c -> c
    | None -> full
  in
  let spec =
    Ksurf.Specializer.compile
      (Ksurf.Profile.of_corpus ~name:"specialize-smoke" corpus)
  in
  let params = { Ksurf.Harness.iterations = 2; warmup_iterations = 1 } in
  let o, (result, denials) =
    sanitized "specialize" (fun ~on_engine ->
        let engine = Ksurf.Engine.create ~seed () in
        on_engine engine;
        let env =
          Ksurf.Env.deploy ~engine
            ~kernel_config:(Ksurf.Specializer.kernel_config spec)
            Ksurf.Env.Multikernel
            (Ksurf.Partition.equal_split ~units:2 ~total_cores:8
               ~total_mem_mb:8192)
        in
        Ksurf.Specializer.install_all env spec;
        let result = Ksurf.Harness.run ~env ~corpus ~params () in
        let denials = ref 0 in
        for rank = 0 to Ksurf.Env.rank_count env - 1 do
          denials := !denials + Ksurf.Specializer.denials env ~rank
        done;
        (result, !denials))
  in
  Format.printf "specialize smoke seed=%d@." seed;
  Format.printf "  %a@." Ksurf.Kspec.pp spec;
  Format.printf "  %d sites, %d invocations, %s of virtual time@."
    (Array.length result.Ksurf.Harness.sites)
    (Ksurf.Harness.total_invocations result)
    (Ksurf.Report.duration_ns result.Ksurf.Harness.wall_time_ns);
  let failures =
    Option.to_list
      (if denials > 0 then
         bad
           "%d policy denials (%d dropped by the harness) — the allowlist \
            must cover its own profile"
           denials result.Ksurf.Harness.denied_calls
       else None)
  in
  gate_verdict o ~failures
    ~clean:"specialized run is deterministic, clean, zero denials"

(* krecov chaos gate for `make check`/CI: every policy must survive the
   "crashy" preset plus random crashes without wedging, and a run
   killed mid-sweep must resume from its checkpoint bit-identically. *)
let recover_soak seed =
  let module S = Ksurf.Supervisor in
  let corpus = gate_corpus ~seed 4 in
  let cconfig =
    {
      Ksurf.Cluster.default_config with
      Ksurf.Cluster.nodes_simulated = 1;
      sim_iterations_per_node = 8;
      warmup_iterations = 1;
      requests_per_iteration = 8;
      seed;
    }
  in
  let app =
    match Ksurf.Apps.by_name "silo" with
    | Some a -> a
    | None -> List.hd Ksurf.Apps.all
  in
  let kind = Ksurf.Env.Kvm Ksurf.Virt_config.default in
  let pool =
    Ksurf.Cluster.pool ~app ~kind ~contended:false ~config:cconfig
      ~noise_corpus:corpus ()
  in
  let plan =
    match Ksurf.Fault_plan.preset "crashy" with
    | Some p -> p
    | None -> assert false
  in
  let base =
    {
      S.default_config with
      S.nodes = cconfig.Ksurf.Cluster.nodes_total;
      iterations = 10;
      barrier_cost_ns =
        Ksurf.Cluster.barrier_cost_for ~kind
          ~nodes_total:cconfig.Ksurf.Cluster.nodes_total;
      crash_rate = 0.02;
      seed;
    }
  in
  Format.printf "recover soak seed=%d: crashy preset + 2%% random crashes@."
    seed;
  let failed = ref false in
  List.iter
    (fun policy ->
      let o =
        timed (S.policy_name policy) (fun () ->
            S.run ~pool ~plan ~config:{ base with S.policy } ())
      in
      let ok = o.S.supersteps = base.S.iterations in
      if not ok then failed := true;
      Format.printf
        "  %-11s %d/%d supersteps, %.3fs, %d crashes, %d restarts, %d \
         backups, %d deaths, %d transitions — %s@."
        o.S.policy o.S.supersteps base.S.iterations (o.S.runtime_ns /. 1e9)
        o.S.crashes o.S.restarts o.S.backups o.S.deaths o.S.transitions
        (if ok then "ok" else "WEDGED"))
    [ S.Survivors; S.Readmit; S.Speculative ];
  (* Kill-and-resume round-trip: a run killed after 3 supersteps and
     resumed from its checkpoint must finish bit-identically to the
     uninterrupted run. *)
  let ckpt = Filename.temp_file "ksurf-soak" ".ckpt" in
  Sys.remove ckpt;
  let config =
    {
      base with
      S.policy = S.Readmit;
      checkpoint_interval = 2;
      checkpoint_path = Some ckpt;
    }
  in
  let full = S.run ~pool ~plan ~config () in
  Sys.remove ckpt;
  ignore (S.run ~pool ~plan ~config ~kill_after:3 ());
  let resumed = S.run ~pool ~plan ~config ~resume_from:ckpt () in
  if Sys.file_exists ckpt then Sys.remove ckpt;
  let identical =
    full.S.runtime_ns = resumed.S.runtime_ns
    && full.S.crashes = resumed.S.crashes
    && full.S.restarts = resumed.S.restarts
    && full.S.transitions = resumed.S.transitions
    && full.S.supersteps = resumed.S.supersteps
  in
  if not identical then failed := true;
  Format.printf
    "  kill-and-resume: %.0f vs %.0f ns, %d vs %d transitions (resumed \
     from superstep %d) — %s@."
    full.S.runtime_ns resumed.S.runtime_ns full.S.transitions
    resumed.S.transitions resumed.S.resumed_from
    (if identical then "identical" else "DIVERGENT");
  if !failed then exit 1;
  Format.printf "  soak clean: every policy completed, resume is exact@."

(* ktenant gate for `make check`: a small churny adaptive fleet under the
   sanitizer harness, then the SLO accounting sanity-checked; any replay
   divergence, sanitizer finding or accounting inconsistency exits
   nonzero. *)
let tenancy_smoke seed =
  let module F = Ksurf.Fleet in
  let module P = Ksurf.Tenant_policy in
  let cfg =
    {
      F.default_config with
      F.tenants = 24;
      churn_per_day = 16.0;
      policy = P.Adaptive;
      seed;
      host_cores = 16;
      day_ns = 4e8;
      days = 1.0;
      mean_rate_per_s = 40.0;
      epoch_ns = 5e7;
    }
  in
  let o, r = sanitized "tenancy" (fun ~on_engine -> F.run ~on_engine cfg) in
  Format.printf "tenancy smoke seed=%d: %d tenants, churn %.0f/day, %s@."
    seed cfg.F.tenants cfg.F.churn_per_day (P.name cfg.F.policy);
  Format.printf
    "  %d requests, %d arrivals, %d departures, %d cgroup storms \
     (%d create / %d destroy, peak %d live), %d migrations@."
    r.F.completed r.F.arrivals r.F.departures
    (r.F.cgroup_creates + r.F.cgroup_destroys)
    r.F.cgroup_creates r.F.cgroup_destroys r.F.peak_cgroups r.F.migrations;
  (* SLO accounting must be internally consistent whatever the
     latencies came out to. *)
  let accounting =
    List.filter_map Fun.id
      [
        (if r.F.completed <= 0 then bad "no requests completed" else None);
        (if r.F.attainment < 0.0 || r.F.attainment > 1.0 then
           bad "attainment %.3f outside [0,1]" r.F.attainment
         else None);
        (if r.F.slo_met > r.F.measured then
           bad "slo_met %d > measured %d" r.F.slo_met r.F.measured
         else None);
        (if r.F.measured > cfg.F.tenants + r.F.arrivals then
           bad "measured %d exceeds tenants ever admitted" r.F.measured
         else None);
        (if r.F.cgroup_destroys > r.F.cgroup_creates then
           bad "cgroup destroys %d > creates %d" r.F.cgroup_destroys
             r.F.cgroup_creates
         else None);
        (if r.F.replica_imbalance <> 0 then
           bad "replica imbalance %d: live replicas diverged from \
                autoscaler targets"
             r.F.replica_imbalance
         else None);
        (if r.F.departures > r.F.arrivals + cfg.F.tenants then
           bad "departures %d exceed population" r.F.departures
         else None);
      ]
  in
  gate_verdict o ~failures:accounting
    ~clean:"churny fleet is deterministic, clean, accounting consistent"

(* kadapt gate for `make check`: the [adaptive-drift] scenario's cell
   under the sanitizer harness, every policy hot-swap transition
   counted off the probe stream, the controller accounting
   cross-checked, and the same cell run under the static policy to
   assert the headline dominance; any divergence, sanitizer finding or
   accounting inconsistency exits nonzero. *)
let drift_smoke seed =
  let module D = Ksurf.Driftbench in
  let o, (r, policy_transitions) =
    sanitized "drift" (fun ~on_engine ->
        let transitions = ref 0 in
        let count engine =
          on_engine engine;
          Ksurf.Engine.add_probe engine (function
            | Ksurf.Engine.Rank_transition { to_state; _ }
              when to_state = "audit" || to_state = "enforce" ->
                incr transitions
            | _ -> ())
        in
        let r =
          D.run ~on_engine:count
            (A.Scenarios.drift_cell ~policy:D.Adaptive ~seed)
        in
        (r, !transitions))
  in
  let s =
    timed "static cell" (fun () ->
        D.run (A.Scenarios.drift_cell ~policy:D.Static ~seed))
  in
  Format.printf "drift smoke seed=%d: %d ranks, dose %.1f, adaptive@." seed
    r.D.ranks r.D.dose;
  Format.printf
    "  %d calls (%d post-drift), %d denied, fp %.4f, surface reduction \
     %.3f, %d promotions / %d demotions / %d swaps, reconverge %s@."
    r.D.calls r.D.calls_post_drift r.D.denied r.D.fp_rate r.D.reduction
    r.D.promotions r.D.demotions r.D.swaps
    (match r.D.reconverge_ns with
    | None -> "n/a"
    | Some ns -> Printf.sprintf "%.0f ns" ns);
  (* The controller choreography must be internally consistent, every
     hot-swap probe-visible, and the headline claim must hold even at
     smoke scale: adaptive strictly beats static on post-drift false
     positives while retaining most of its surface reduction. *)
  let accounting =
    List.filter_map Fun.id
      [
        (if r.D.calls <= 0 then bad "no calls issued" else None);
        (if r.D.drifts <> 1 then
           bad "expected exactly 1 workload drift, saw %d" r.D.drifts
         else None);
        (if r.D.drift_at_ns = None then
           bad "drift never fired (sink not called)"
         else None);
        (if r.D.fp_rate < 0.0 || r.D.fp_rate > 1.0 then
           bad "fp rate %.4f outside [0,1]" r.D.fp_rate
         else None);
        (if r.D.denied_post_drift > r.D.denied then
           bad "post-drift denials %d exceed total %d" r.D.denied_post_drift
             r.D.denied
         else None);
        (if r.D.calls_post_drift > r.D.calls then
           bad "post-drift calls %d exceed total %d" r.D.calls_post_drift
             r.D.calls
         else None);
        (if r.D.swaps <> r.D.ranks + r.D.promotions + r.D.demotions then
           bad "swap count %d inconsistent: %d ranks + %d promotions + %d \
                demotions"
             r.D.swaps r.D.ranks r.D.promotions r.D.demotions
         else None);
        (if policy_transitions <> r.D.swaps then
           bad "probe saw %d policy transitions, env counted %d swaps"
             policy_transitions r.D.swaps
         else None);
        (if r.D.promotions < r.D.ranks then
           bad "only %d promotions across %d ranks: some rank never left \
                audit"
             r.D.promotions r.D.ranks
         else None);
        (if r.D.demotions < 1 then
           bad "dose %.1f drift triggered no demotion" r.D.dose
         else None);
        (if s.D.denied = 0 then
           bad "static policy denied nothing under drift" else None);
        (if r.D.fp_rate >= s.D.fp_rate then
           bad "adaptive fp %.4f does not beat static %.4f" r.D.fp_rate
             s.D.fp_rate
         else None);
        (if s.D.reduction > 0.0 && r.D.reduction < 0.4 *. s.D.reduction then
           bad "adaptive retains only %.0f%% of static's surface reduction"
             (100.0 *. r.D.reduction /. s.D.reduction)
         else None);
      ]
  in
  gate_verdict o ~failures:accounting
    ~clean:
      "adaptive cell is deterministic, clean, accounting consistent, \
       dominates static"

(* --- torture ------------------------------------------------------------ *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_temp_dir prefix =
  let p = Filename.temp_file prefix "" in
  Sys.remove p;
  Ksurf.Fileio.ensure_dir p;
  p

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* kdur gate for `make check`: the quick grid at 1 and 4 workers with
   byte-compared exports and zero tolerated violations, then the same
   durability machinery wired into a live engine workload — scenario
   cells journalled under an armed fault plan (transients, an ENOSPC
   window, a scheduled crash) under the sanitizer harness. *)
let torture_smoke ~seed ~doses ~kinds =
  let module T = Ksurf.Torture in
  let root = fresh_temp_dir "ksurf-torture-smoke" in
  Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
  let failures = ref [] in
  let fail fmt =
    Format.kasprintf (fun m -> failures := !failures @ [ m ]) fmt
  in
  (* 1. The quick grid, twice: every cell must hold every invariant
     at every crash point, and both the cell results and the
     exported bytes must be independent of the worker count. *)
  let grid n sub =
    Ksurf.Pool.with_pool ~jobs:n (fun pool ->
        timed
          (Printf.sprintf "torture grid (%d worker%s)" n
             (if n = 1 then "" else "s"))
          (fun () ->
            E.Torture.run ~seed ~scale:E.Quick ?doses:(Some (Option.value ~default:[ 0.0; 1.0 ] doses))
              ?kinds
              ~scratch:(Filename.concat root sub)
              ~pool ()))
  in
  let t1 = grid 1 "grid-j1" in
  let t4 = grid 4 "grid-j4" in
  Format.printf "%a@." E.Torture.pp t1;
  List.iter
    (fun (r : T.result) ->
      if T.violations r <> 0 then
        fail "%s dose %.1f: %d consistency violations" r.T.kind r.T.dose
          (T.violations r);
      if r.T.live_runs > 0 && r.T.recovery_ok < 1.0 then
        fail "%s dose %.1f: live recovery %.2f < 1.0" r.T.kind r.T.dose
          r.T.recovery_ok)
    t1.E.Torture.cells;
  if t1.E.Torture.cells <> t4.E.Torture.cells then
    fail "cell results differ between 1 and 4 workers";
  let export sub t =
    String.concat "\x00"
      (List.map read_file (Ksurf.Export.torture ~dir:(Filename.concat root sub) t))
  in
  if export "csv-j1" t1 <> export "csv-j4" t4 then
    fail "exported CSV bytes differ between 1 and 4 workers";
  Format.printf
    "  grid: %d cells, %d crash states enumerated, %d torn files refused@."
    (List.length t1.E.Torture.cells)
    (List.fold_left (fun a (r : T.result) -> a + r.T.crash_states) 0
       t1.E.Torture.cells)
    (List.fold_left (fun a (r : T.result) -> a + r.T.torn_refused) 0
       t1.E.Torture.cells);
  (* 2. Engine integration: three varbench scenario cells, each
     completion recorded through a Recov_journal whose host I/O runs
     under an armed fault plan — recover from every injected death,
     drain every deferred persist, and replay the whole thing under
     the sanitizer harness. *)
  let plan =
    {
      Ksurf.Durplan.name = "smoke";
      actions =
        [
          Ksurf.Durplan.Transient { rate = 0.4; eintr_share = 0.5 };
          Ksurf.Durplan.Enospc_window { from_op = 4; until_op = 8 };
          Ksurf.Durplan.Crash_at { op = 2 };
        ];
    }
  in
  let cells = [ "varbench:0"; "varbench:1"; "varbench:2" ] in
  let replay = ref 0 in
  let litter_swept = ref 0 in
  let o, (s : Ksurf.Faultio.stats) =
    sanitized "torture live" (fun ~on_engine ->
        incr replay;
        let dir = Filename.concat root (Printf.sprintf "live-%d" !replay) in
        Ksurf.Fileio.ensure_dir dir;
        let jpath = Filename.concat dir "cells.journal" in
        let inj = Ksurf.Faultio.make ~root:dir ~seed plan in
        let executed = ref [] in
        let attempts = ref 0 in
        let completed = ref false in
        while (not !completed) && !attempts < 50 do
          incr attempts;
          match
            Ksurf.Faultio.with_faults inj (fun () ->
                litter_swept := !litter_swept + Ksurf.Fileio.sweep_tmp ~dir;
                let j = Ksurf.Recov_journal.load ~flush_every:1 ~path:jpath () in
                List.iter
                  (fun cell ->
                    if not (Ksurf.Recov_journal.mem j cell) then begin
                      (* Recorded cells are never re-executed; a cell
                         whose completion died before persisting is
                         legitimately recomputed — here memoised so the
                         engine event stream stays replay-identical. *)
                      if not (List.mem cell !executed) then begin
                        A.Scenarios.run A.Scenarios.Varbench ~seed ~on_engine;
                        executed := cell :: !executed
                      end;
                      Ksurf.Recov_journal.record j cell
                    end)
                  cells;
                Ksurf.Recov_journal.flush j;
                Ksurf.Recov_journal.persist_pending j)
          with
          | false -> completed := true
          | true -> () (* ENOSPC deferral: space clears as ops advance *)
          | exception Ksurf.Iohook.Crashed _ -> () (* next attempt recovers *)
        done;
        if not !completed then fail "replay %d: journal never converged" !replay;
        if List.length !executed <> List.length cells then
          fail "replay %d: %d cells executed, expected %d" !replay
            (List.length !executed) (List.length cells);
        let j = Ksurf.Recov_journal.load ~path:jpath () in
        List.iter
          (fun cell ->
            if not (Ksurf.Recov_journal.mem j cell) then
              fail "replay %d: cell %s lost" !replay cell)
          cells;
        if Ksurf.Fileio.sweep_tmp ~dir <> 0 then
          fail "replay %d: temp litter survived recovery" !replay;
        Ksurf.Faultio.stats inj)
  in
  if s.Ksurf.Faultio.crashes < 1 then fail "scheduled crash never fired";
  if s.Ksurf.Faultio.enospc < 1 then fail "ENOSPC window never hit";
  if s.Ksurf.Faultio.transients < 1 then fail "no transient faults injected";
  Format.printf
    "  live: %d ops, %d transients, %d enospc, %d crashes, %d temp \
     file(s) swept during recovery@."
    s.Ksurf.Faultio.ops s.Ksurf.Faultio.transients s.Ksurf.Faultio.enospc
    s.Ksurf.Faultio.crashes !litter_swept;
  gate_verdict o ~failures:!failures
    ~clean:
      "every crash state recovers, sweeps are worker-count invariant, \
       faulted journalling is deterministic and clean"

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
   --journal and --resume, [gate] adds a --smoke/--soak mode (its flag
   and the gate to run at a seed), and [seeded = false] (Table 1, a
   fixed configuration) drops --seed, --scale and --jobs.  [failed]
   turns a completed study into exit 1. *)
type study =
  | Study : {
      name : string;
      doc : string;
      run : (ctx -> 'a) Term.t;
      pp : Format.formatter -> 'a -> unit;
      export : (dir:string -> 'a -> string list) option;
      journalled : bool;
      gate : (bool Term.t * (int -> unit) Term.t) option;
      seeded : bool;
      failed : 'a -> bool;
    }
      -> study

let study ?export ?(journalled = false) ?gate ?(seeded = true)
    ?(failed = fun _ -> false) name ~doc pp run =
  Study { name; doc; run; pp; export; journalled; gate; seeded; failed }

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
    ~gate:
      ( gate_flag "smoke"
          "Gate mode: double-run a churny adaptive fleet under the \
           sanitizers and check the SLO accounting; exit nonzero on \
           divergence, findings or inconsistency.",
        Term.const tenancy_smoke )
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
  study "drift" ~export:Ksurf.Export.drift ~journalled:true
    ~gate:
      ( gate_flag "smoke"
          "Gate mode: double-run a small adaptive driftbench cell under the \
           sanitizers, cross-check the controller accounting against the \
           probe stream, and assert adaptive dominates static; exit nonzero \
           on divergence, findings or inconsistency.",
        Term.const drift_smoke )
    ~doc:
      "kadapt study: online adaptive specialization under workload drift — \
       policy x dose, tabling false-positive ENOSYS rate vs retained \
       surface area vs time-to-reconverge"
    E.Drift.pp
    Term.(const run $ doses $ policies)

let torture_study =
  let doses =
    Term.(
      const some_list
      $ list_arg Arg.float "dose" ~docv:"D,..."
          ~doc:
            "Fault doses to sweep; dose scales the io-mixed plan's rates \
             and ENOSPC window, 0 is the fault-free control (default: \
             0,1,2,3).")
  in
  (* Parsed up front: a bad --path is rejected in gate mode too. *)
  let kinds =
    Term.(
      const
        (parse_names ~what:"writer path" ~expected:"journal|checkpoint|export"
           Ksurf.Torture.kind_of_name)
      $ list_arg Arg.string "path" ~docv:"P,..."
          ~doc:
            "Durable writer paths to torture: $(b,journal), \
             $(b,checkpoint), $(b,export) (default: all).")
  in
  let run doses kinds c =
    let scratch =
      E.Torture.default_scratch ^ "." ^ string_of_int (Unix.getpid ())
    in
    Fun.protect
      ~finally:(fun () -> rm_rf scratch)
      (fun () ->
        E.Torture.run ~seed:c.seed ~scale:c.scale ?doses ?kinds ~scratch
          ?journal:c.journal ~pool:c.pool ())
  in
  study "torture" ~export:Ksurf.Export.torture ~journalled:true
    ~failed:(fun t -> E.Torture.violations t <> 0)
    ~gate:
      ( gate_flag "smoke"
          "Gate mode: run the quick torture grid at 1 and 4 workers \
           (byte-compared exports, zero tolerated violations), then \
           journal live scenario cells under an armed fault plan with \
           lockdep, determinism and invariant checking; exit nonzero on \
           any violation, divergence or finding.",
        Term.(
          const (fun doses kinds seed -> torture_smoke ~seed ~doses ~kinds)
          $ doses $ kinds) )
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
        ~gate:
          ( gate_flag "smoke"
              "Gate mode: double-run a specialized deployment under the \
               sanitizers; exit nonzero on denials, divergence or findings.",
            Term.const specialize_smoke )
        ~doc:
          "kspec study: per-tenant specialized kernels (multikernel) vs \
           shared native vs kvm-64 on the same fs-restricted workload"
        E.Specialize.pp
        (Term.const (fun c ->
             E.Specialize.run ~seed:c.seed ~scale:c.scale ?journal:c.journal
               ~pool:c.pool ()));
      study "recover" ~export:Ksurf.Export.recover ~journalled:true
        ~gate:
          ( gate_flag "soak"
              "Chaos gate: run every recovery policy under the crashy preset \
               plus random crashes, then verify a killed run resumes from \
               its checkpoint bit-identically; exit nonzero on any wedge or \
               divergence.",
            Term.const recover_soak )
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
  let gating, gate =
    Option.value s.gate ~default:(Term.const false, Term.const ignore)
  in
  let go seed scale export_dir journal_path resume jobs gating gate run () =
    if gating then gate seed
    else begin
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
      if s.failed t then exit 1
    end
  in
  Cmd.v (Cmd.info s.name ~doc:s.doc)
    Term.(
      const go $ seed $ scale $ export $ journal $ resume $ jobs $ gating
      $ gate $ s.run $ logs_term)

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
