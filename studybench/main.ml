(* studybench: the paper's studies as users run them, timed end to end
   and traced layer by layer.  Normally run through run.py, which builds
   this program first:

     main.exe --workload varbench-paper --seed 7 --seconds 30 --trace 0

   One invocation measures one workload.  It sets up [setup_blocks] x
   [setup_block] times (pool creation, tailbench compilation, corpus
   generation at each input seed of the default seed, so that every
   run times the same set-up work) and reports the median as
   [setup_s], then sets up once more at the workload's own seed for
   the passes.  A pass runs
   the workload once for each input seed.  Untraced passes call the
   study entry points and repeat for [--seconds]; [wall_ref_s] is
   their median, leaving out the process's first pass, which grows the
   heap.  Both are scaled to the reference speed of calib.ml: a pass's
   part for one input seed by the loop runs just before and after it,
   the set-ups by the median of the loop runs between their blocks
   (one set-up is shorter than the loop).  The raw seconds are in the
   summary.
   Traced passes run the same cells through the layers' public
   functions with span recording on: with [--trace 0], one pass first
   when the untraced path cannot count engine events or the cells run
   on several domains; with [--trace 1], alternating with untraced
   passes after a warm-up.

   Checks: every pass renders the same output, whose Stable_hash digest
   must match the pin for the default seed (pins.ml); a jobs=2 workload
   must render what jobs=1 renders; deterministic simulated counts must
   repeat exactly; no cell may be stamped degraded without a crashing
   fault plan.

   Output: JSON lines on stdout.  A context header first, per-cell
   records with [--trace 1], a summary, and as the last line one object
   with the keys correct, attempted, failed and metrics (end-to-end
   metrics with [--trace 0], per-layer ones with [--trace 1]).  Spans go
   to [<out>/spans-<workload>-seed<n>.jsonl].  Exit 1 when any check
   failed, 2 on bad arguments. *)

module K = Ksurf
module E = Ksurf.Experiments

(* ------------------------------------------------------------------ *)
(* Small helpers                                                        *)

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let maximum = List.fold_left Float.max 0.0

let timed f =
  let t0 = K.Clock.now_s () in
  let r = f () in
  (r, K.Clock.elapsed_s ~since:t0)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let digest_hex d = Printf.sprintf "%016x" d

(* ------------------------------------------------------------------ *)
(* Study parameters at quick scale.  The untraced path calls the study
   entry points; the traced path rebuilds the same cells from the
   layers' public functions, so it repeats the study's parameters —
   the digest comparison between the two paths checks that it does. *)

let scale = E.Quick
let kvm_kind = K.Env.Kvm K.Virt_config.default
let harness_params = { K.Harness.iterations = 8; warmup_iterations = 1 }
let runner_config ~seed = { K.Runner.default_config with K.Runner.requests = 800; seed }

let tail_specs =
  List.concat_map (fun app -> [ (app, kvm_kind); (app, K.Env.Docker) ]) K.Apps.all

(* Table 2's environments; the Dose sweep uses the same three. *)
let table2_envs = [ ("native", K.Env.Native, 1); ("kvm-64", kvm_kind, 64); ("docker-64", K.Env.Docker, 64) ]
let dose_key env intensity = Printf.sprintf "dose:%s:%.2f" env intensity

let dose_plan () =
  match K.Fault_plan.preset "mixed" with
  | Some p -> p
  | None -> failwith "fault plan preset 'mixed' is missing"

let dose_specs () =
  List.concat_map
    (fun (name, kind, units) ->
      List.map (fun i -> (name, kind, units, i)) E.Dose.default_intensities)
    table2_envs

(* ------------------------------------------------------------------ *)
(* Workload shape                                                       *)

(* The inputs of one pass at one seed. *)
type setup = { corpus : K.Corpus.t; pool : K.Pool.t }

type cell_record = {
  key : string;
  host_s : float;
  events : int;
  minor_words : float;
}

(* One pass over a workload's cells. *)
type pass = {
  rendered : string;
  cells : int;  (* cells attempted *)
  unexplained : string list;  (* cells stamped degraded with no plan to explain it *)
  total_events : int option;  (* simulated engine events, when the path can see them *)
  invocations : int option;  (* varbench invocations, when visible *)
  records : cell_record list;  (* traced path only *)
  verify : unit -> unit;
      (* the benchmark's own checks of the pass's side effects, run after
         the timed region; raises when one fails *)
}

type workload = {
  name : string;
  jobs : int;
  ncells : int;  (* cells in one pass at one seed *)
  inputs : int;
      (* input sets per pass: seeds n, n+1000, ...  Where the amount of
         simulated work depends on the generated corpus, a pass covers
         several corpora so that one seed's corpus size does not set the
         run's time. *)
  tailbench : bool;  (* compiles the tailbench apps in setup *)
  sees_engines : bool;  (* the untraced pass can count engine events *)
  untraced : seed:int -> out:string -> setup -> pass;
  traced : seed:int -> out:string -> setup -> pass;
}

let render pp t = Format.asprintf "%a@." pp t

(* ------------------------------------------------------------------ *)
(* Traced building blocks.  Every call into a layer is wrapped in a
   span named after the layer; counts are recorded next to it. *)

let count_kernel env =
  List.iter
    (fun inst ->
      List.iter
        (fun (r : K.Instance.lock_report) ->
          Spans.count "kernel.lock_acquisitions" (float_of_int r.acquisitions);
          Spans.count "kernel.lock_contended" (float_of_int r.contended);
          if r.acquisitions > 0 then
            Spans.count "kernel.lock_wait_ns"
              (r.mean_wait_ns *. float_of_int r.acquisitions))
        (K.Instance.lock_contention_report inst);
      Spans.count "kernel.busy_fraction_sum" (K.Instance.busy_fraction inst);
      Spans.count "kernel.instances" 1.0)
    (K.Env.instances env)

let count_harness (r : K.Harness.result) =
  Spans.count "varbench.invocations" (float_of_int (K.Harness.total_invocations r));
  Spans.count "varbench.retries" (float_of_int r.K.Harness.transient_retries);
  Spans.count "varbench.abandoned" (float_of_int r.K.Harness.abandoned_calls)

(* One sweep cell: span, host seconds, minor words (Gc.minor_words is
   per domain, and a cell runs on one domain) and engine events. *)
let traced_cell ~parent ~id ~key f =
  Spans.span ~parent ~cell:id "study.cell" (fun () ->
      let w0 = Gc.minor_words () in
      let (v, events), host_s = timed f in
      let minor_words = Gc.minor_words () -. w0 in
      Spans.count "sim.events" (float_of_int events);
      (v, { key; host_s; events; minor_words }))

let cell_ids = Atomic.make 0
let next_cell_id () = Atomic.fetch_and_add cell_ids 1

(* [Pool.map] under a par.map span; cells get ids in input order. *)
let traced_map pool f specs =
  Spans.span "par.map" (fun () ->
      let parent = Spans.current () in
      let numbered = List.map (fun s -> (next_cell_id (), s)) specs in
      K.Pool.map ~pool (fun (id, spec) -> f ~parent ~id spec) numbered)

let traced_varbench ~seed ~corpus kind units =
  let engine = K.Engine.create ~seed () in
  let env =
    Spans.span "env.deploy" (fun () ->
        K.Env.deploy ~engine kind (K.Partition.table1 units))
  in
  Spans.count "env.deploys" 1.0;
  let result =
    Spans.span "varbench.harness" (fun () ->
        K.Harness.run ~env ~corpus ~params:harness_params ())
  in
  count_harness result;
  count_kernel env;
  (result, K.Engine.events_executed engine)

let traced_render pp t = Spans.span "report.render" (fun () -> render pp t)

let finish_pass ~rendered ~unexplained cell_results =
  let records = List.map snd cell_results in
  {
    rendered;
    cells = List.length records;
    unexplained;
    total_events = Some (List.fold_left (fun a (r : cell_record) -> a + r.events) 0 records);
    invocations = None;
    records;
    verify = ignore;
  }

(* ------------------------------------------------------------------ *)
(* tail-contended / tail-isolated: the Figure 3 cells                  *)

let tail_unexplained =
  List.filter_map (fun (r : K.Runner.result) ->
      if r.K.Runner.degraded then Some (r.app_name ^ "/" ^ r.kind) else None)

let tail_untraced ~contended ~seed ~out:_ s =
  let config = runner_config ~seed in
  let cells =
    K.Pool.map ~pool:s.pool
      (fun (app, kind) ->
        let engine = ref None in
        let r =
          K.Runner.run_single_node ~app ~kind ~contended ~config
            ~noise_corpus:s.corpus
            ~on_engine:(fun e -> engine := Some e)
            ()
        in
        (r, Option.fold ~none:0 ~some:K.Engine.events_executed !engine))
      tail_specs
  in
  let results = List.map fst cells in
  {
    rendered = render E.Fig3.pp { E.Fig3.cells = results };
    cells = List.length cells;
    unexplained = tail_unexplained results;
    total_events = Some (List.fold_left (fun a (_, e) -> a + e) 0 cells);
    invocations = None;
    records = [];
    verify = ignore;
  }

let tail_traced ~contended ~seed ~out:_ s =
  let config = runner_config ~seed in
  let cell_results =
    traced_map s.pool
      (fun ~parent ~id (app, kind) ->
        let key =
          Printf.sprintf "%s/%s/%s" app.K.Apps.name (K.Env.kind_name kind)
            (if contended then "contended" else "isolated")
        in
        traced_cell ~parent ~id ~key (fun () ->
            let engine = ref None and env = ref None in
            let booted = ref 0.0 in
            let r =
              Spans.span "tailbench.run_single_node" (fun () ->
                  K.Runner.run_single_node ~app ~kind ~contended ~config
                    ~noise_corpus:s.corpus
                    ~on_engine:(fun e ->
                      engine := Some e;
                      booted := K.Clock.now_s ())
                    ~on_env:(fun e ->
                      (* Between the two hooks the runner does nothing
                         but partition and [Env.deploy]. *)
                      Spans.interval ~name:"env.deploy" ~start:!booted
                        ~stop:(K.Clock.now_s ());
                      env := Some e)
                    ())
            in
            Spans.count "env.deploys" 1.0;
            Spans.count "tailbench.requests" (float_of_int r.K.Runner.count);
            Option.iter count_kernel !env;
            (r, Option.fold ~none:0 ~some:K.Engine.events_executed !engine)))
      tail_specs
  in
  let results = List.map fst cell_results in
  finish_pass
    ~rendered:(traced_render E.Fig3.pp { E.Fig3.cells = results })
    ~unexplained:(tail_unexplained results) cell_results

(* ------------------------------------------------------------------ *)
(* varbench-paper: Table 2, Table 3 and Figure 2                       *)

let varbench_render t2 t3 f2 =
  render E.Table2.pp t2 ^ render E.Table3.pp t3 ^ render E.Fig2.pp f2

let varbench_cells =
  List.length table2_envs + List.length K.Partition.table1_rows
  + 1 + List.length K.Partition.table1_rows

let varbench_untraced ~seed ~out:_ s =
  let corpus = s.corpus and pool = s.pool in
  let t2 = E.Table2.run ~seed ~scale ~corpus ~pool () in
  let t3 = E.Table3.run ~seed ~scale ~corpus ~pool () in
  let f2 = E.Fig2.run ~seed ~scale ~corpus ~pool () in
  {
    rendered = varbench_render t2 t3 f2;
    cells = varbench_cells;
    unexplained = [];
    total_events = None;
    invocations = Some t2.E.Table2.invocations_per_env;
    records = [];
    verify = ignore;
  }

let degraded_key key (r : K.Harness.result) = if r.K.Harness.degraded then [ key ] else []

let varbench_traced ~seed ~out:_ s =
  let corpus = s.corpus and pool = s.pool in
  let summarize f = Spans.span "stats.summarize" f in
  let t2_cells =
    traced_map pool
      (fun ~parent ~id (name, kind, units) ->
        let key = Printf.sprintf "table2/%s/units=%d" name units in
        traced_cell ~parent ~id ~key (fun () ->
            let result, events = traced_varbench ~seed ~corpus kind units in
            let row =
              summarize (fun () ->
                  let stats = K.Study.site_stats result in
                  {
                    E.Table2.env = name;
                    median = K.Study.bucket_row K.Study.Median stats;
                    p99 = K.Study.bucket_row K.Study.P99 stats;
                    max = K.Study.bucket_row K.Study.Max stats;
                  })
            in
            ((row, K.Harness.total_invocations result, degraded_key key result), events)))
      table2_envs
  in
  let invocations_per_env =
    match List.rev t2_cells with ((_, n, _), _) :: _ -> n | [] -> 0
  in
  let t2 =
    {
      E.Table2.rows = List.map (fun ((r, _, _), _) -> r) t2_cells;
      corpus_calls = K.Corpus.total_calls corpus;
      invocations_per_env;
    }
  in
  let t3_cells =
    traced_map pool
      (fun ~parent ~id containers ->
        let key = Printf.sprintf "table3/docker/units=%d" containers in
        traced_cell ~parent ~id ~key (fun () ->
            let result, events = traced_varbench ~seed ~corpus K.Env.Docker containers in
            let row =
              summarize (fun () ->
                  let stats = K.Study.site_stats result in
                  { E.Table3.containers; max = K.Study.bucket_row K.Study.Max stats })
            in
            ((row, degraded_key key result), events)))
      K.Partition.table1_rows
  in
  let t3 = { E.Table3.rows = List.map (fun ((r, _), _) -> r) t3_cells } in
  (* Figure 2 computes the native reference outside its sweep. *)
  let native_cell =
    traced_cell ~parent:(Spans.current ()) ~id:(next_cell_id ()) ~key:"fig2/native/units=1"
      (fun () ->
        let result, events = traced_varbench ~seed ~corpus K.Env.Native 1 in
        ((summarize (fun () -> K.Study.site_stats result), degraded_key "fig2/native" result), events))
  in
  let (native, native_degraded), native_record = native_cell in
  let f2_cells =
    traced_map pool
      (fun ~parent ~id vms ->
        let key = Printf.sprintf "fig2/kvm/units=%d" vms in
        traced_cell ~parent ~id ~key (fun () ->
            let result, events = traced_varbench ~seed ~corpus kvm_kind vms in
            let cells =
              summarize (fun () ->
                  let stats = K.Study.site_stats result in
                  let filtered =
                    K.Study.filter_by_native_median ~native ~min_median:10_000.0 stats
                  in
                  List.map
                    (fun category ->
                      {
                        E.Fig2.vms;
                        category;
                        violin =
                          K.Study.category_violin
                            ~label:(Printf.sprintf "%dvm" vms) category filtered;
                      })
                    K.Category.all)
            in
            ((cells, degraded_key key result), events)))
      K.Partition.table1_rows
  in
  let filtered_sites =
    summarize (fun () ->
        Array.length (K.Study.filter_by_native_median ~native ~min_median:10_000.0 native))
  in
  let f2 =
    {
      E.Fig2.cells = List.concat_map (fun ((c, _), _) -> c) f2_cells;
      filtered_sites;
      total_sites = Array.length native;
    }
  in
  let rendered =
    Spans.span "report.render" (fun () -> varbench_render t2 t3 f2)
  in
  let records =
    List.map snd t2_cells @ List.map snd t3_cells @ [ native_record ]
    @ List.map snd f2_cells
  in
  {
    rendered;
    cells = List.length records;
    unexplained =
      List.concat_map (fun ((_, _, d), _) -> d) t2_cells
      @ List.concat_map (fun ((_, d), _) -> d) t3_cells
      @ native_degraded
      @ List.concat_map (fun ((_, d), _) -> d) f2_cells;
    total_events = Some (List.fold_left (fun a (r : cell_record) -> a + r.events) 0 records);
    invocations = Some invocations_per_env;
    records;
    verify = ignore;
  }

(* ------------------------------------------------------------------ *)
(* dose-journal-par: the Dose sweep at jobs=2, journalled              *)

let fresh_journal ~out ~seed tag =
  let path =
    Filename.concat out
      (Printf.sprintf "journal-%s-seed%d-%d.txt" tag seed (Unix.getpid ()))
  in
  if Sys.file_exists path then K.Fileio.remove path;
  (path, K.Recov_journal.load ~path ())

let close_journal (path, j) ~expected =
  let ok = (not (K.Recov_journal.persist_pending j))
           && List.length (K.Recov_journal.cells (K.Recov_journal.load ~path ())) = expected in
  if Sys.file_exists path then K.Fileio.remove path;
  if not ok then failwith ("journal " ^ path ^ " did not persist every cell")

(* A degraded dose cell is explained only by a plan that crashes ranks;
   the mixed preset schedules none. *)
let dose_unexplained (t : E.Dose.t) =
  List.filter_map
    (fun (c : E.Dose.cell) ->
      if c.E.Dose.degraded then Some (dose_key c.env c.intensity) else None)
    t.E.Dose.cells

let dose_untraced ~seed ~out s =
  let ((_, j) as journal) = fresh_journal ~out ~seed "e2e" in
  let t = E.Dose.run ~seed ~scale ~corpus:s.corpus ~journal:j ~pool:s.pool () in
  {
    rendered = render E.Dose.pp t;
    cells = List.length t.E.Dose.cells;
    unexplained = dose_unexplained t;
    total_events = None;
    invocations = None;
    records = [];
    verify = (fun () -> close_journal journal ~expected:(List.length t.E.Dose.cells));
  }

(* The Dose cell's pooled p99 and CoV, as the study computes them. *)
let dose_p99_cov result =
  match K.Study.pooled_samples result with
  | Some samples ->
      let n = Array.length samples in
      let mean =
        if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 samples /. float_of_int n
      in
      let var =
        if n = 0 then 0.0
        else
          Array.fold_left
            (fun acc x -> acc +. (((x -. mean) *. (x -. mean)) /. float_of_int n))
            0.0 samples
      in
      ( (if n = 0 then 0.0 else K.Quantile.p99 samples),
        if mean > 0.0 then sqrt var /. mean else 0.0 )
  | None ->
      let o = result.K.Harness.overall in
      let n = K.Streamstat.count o in
      let mean = K.Streamstat.mean o in
      let var =
        if n < 2 then 0.0
        else K.Streamstat.variance o *. (float_of_int (n - 1) /. float_of_int n)
      in
      (K.Streamstat.p99 o, if mean > 0.0 then sqrt var /. mean else 0.0)

let dose_traced ~seed ~out s =
  let plan = dose_plan () in
  let ((_, journal) as j) = fresh_journal ~out ~seed "traced" in
  let retries0 = K.Fileio.transient_retries () in
  let cell_results =
    Fun.protect
      ~finally:(fun () ->
        Spans.span "recov.flush" (fun () -> K.Recov_journal.flush journal))
      (fun () ->
        traced_map s.pool
          (fun ~parent ~id (env_name, kind, units, intensity) ->
            let key = dose_key env_name intensity in
            let r =
              traced_cell ~parent ~id ~key (fun () ->
                  let engine = K.Engine.create ~seed () in
                  let env =
                    Spans.span "env.deploy" (fun () ->
                        K.Env.deploy ~engine kind (K.Partition.table1 units))
                  in
                  Spans.count "env.deploys" 1.0;
                  let kf =
                    Spans.span "fault.arm" (fun () ->
                        K.Kfault.arm ~env ~plan:(K.Fault_plan.scale intensity plan)
                          ~seed ())
                  in
                  let result =
                    Spans.span "varbench.harness" (fun () ->
                        K.Harness.run ~env ~corpus:s.corpus ~params:harness_params ())
                  in
                  K.Kfault.disarm kf;
                  count_harness result;
                  count_kernel env;
                  Spans.count "fault.injections"
                    (float_of_int (K.Kfault.total_injections kf));
                  let p99, cov =
                    Spans.span "stats.summarize" (fun () -> dose_p99_cov result)
                  in
                  ( {
                      E.Dose.env = env_name;
                      intensity;
                      p99;
                      cov;
                      injections = K.Kfault.total_injections kf;
                      retries = result.K.Harness.transient_retries;
                      degraded = result.K.Harness.degraded;
                      survivors = result.K.Harness.survivors;
                    },
                    K.Engine.events_executed engine ))
            in
            Spans.span ~parent "recov.journal_record" (fun () ->
                K.Recov_journal.record journal (dose_key env_name intensity));
            Spans.count "recov.journal_records" 1.0;
            r)
          (dose_specs ()))
  in
  Spans.count "fileio.retries"
    (float_of_int (K.Fileio.transient_retries () - retries0));
  let t = { E.Dose.plan_name = plan.K.Fault_plan.name; cells = List.map fst cell_results } in
  {
    (finish_pass ~rendered:(traced_render E.Dose.pp t) ~unexplained:(dose_unexplained t)
       cell_results)
    with
    verify = (fun () -> close_journal j ~expected:(List.length cell_results));
  }

(* ------------------------------------------------------------------ *)

let workloads =
  [
    {
      name = "tail-contended";
      jobs = 1;
      ncells = List.length tail_specs;
      inputs = 1;
      tailbench = true;
      sees_engines = true;
      untraced = tail_untraced ~contended:true;
      traced = tail_traced ~contended:true;
    };
    {
      name = "tail-isolated";
      jobs = 1;
      ncells = List.length tail_specs;
      inputs = 1;
      tailbench = true;
      sees_engines = true;
      untraced = tail_untraced ~contended:false;
      traced = tail_traced ~contended:false;
    };
    {
      name = "varbench-paper";
      jobs = 1;
      ncells = varbench_cells;
      inputs = 5;
      tailbench = false;
      sees_engines = false;
      untraced = varbench_untraced;
      traced = varbench_traced;
    };
    {
      name = "dose-journal-par";
      jobs = 2;
      ncells = List.length (dose_specs ());
      inputs = 5;
      tailbench = false;
      sees_engines = false;
      untraced = dose_untraced;
      traced = dose_traced;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Setup, passes and checks                                             *)

let input_seeds w ~seed = List.init w.inputs (fun i -> seed + (1000 * i))

(* In the CLI's order: the pool (and its minor-heap setting) first,
   then the inputs.  One setup per input seed, sharing the pool. *)
let setup_once w ~seed =
  let pool = Spans.span "par.create" (fun () -> K.Pool.create ~jobs:w.jobs ()) in
  if w.tailbench then
    Spans.span "tailbench.compile" (fun () ->
        List.iter (fun app -> ignore (K.Service.compile app : K.Service.compiled)) K.Apps.all);
  List.map
    (fun seed ->
      let corpus =
        Spans.span "syzgen.generate" (fun () -> E.default_corpus ~seed scale)
      in
      (seed, { corpus; pool }))
    (input_seeds w ~seed)

let pool_of = function (_, s) :: _ -> s.pool | [] -> invalid_arg "no inputs"

(* The reference loop's seconds, run on every domain of [pool] at once
   (their mean), because a pass of a jobs=2 workload runs on as many
   cores. *)
let loop_time pool =
  let times = K.Pool.map ~pool (fun () -> Calib.time ()) (List.init (K.Pool.jobs pool) ignore) in
  List.fold_left ( +. ) 0.0 times /. float_of_int (List.length times)

(* One pass over every input seed, as one pass.  [each] runs the part
   of one input seed. *)
let over_inputs ?(each = fun g -> g ()) f ~out inputs =
  let passes =
    List.map
      (fun (seed, s) ->
        let p = each (fun () -> f ~seed ~out s) in
        {
          p with
          records =
            List.map
              (fun r -> { r with key = Printf.sprintf "seed%d/%s" seed r.key })
              p.records;
        })
      inputs
  in
  let sum_opt get =
    List.fold_left
      (fun acc p -> match (acc, get p) with Some a, Some b -> Some (a + b) | _ -> None)
      (Some 0) passes
  in
  {
    rendered = String.concat "" (List.map (fun p -> p.rendered) passes);
    cells = List.fold_left (fun a p -> a + p.cells) 0 passes;
    unexplained = List.concat_map (fun p -> p.unexplained) passes;
    total_events = sum_opt (fun p -> p.total_events);
    invocations = sum_opt (fun p -> p.invocations);
    records = List.concat_map (fun p -> p.records) passes;
    verify = (fun () -> List.iter (fun p -> p.verify ()) passes);
  }

(* The simulated counts a simulator-only change must leave identical. *)
let deterministic_counts =
  [
    "sim.events"; "kernel.lock_acquisitions"; "kernel.lock_contended";
    "kernel.lock_wait_ns"; "kernel.busy_fraction_sum"; "varbench.invocations";
    "varbench.retries"; "varbench.abandoned"; "fault.injections";
    "tailbench.requests"; "env.deploys"; "recov.journal_records";
  ]

type traced_result = {
  tpass : pass;
  twall : float;
  spans : Spans.span list;
  counts : (string, float) Hashtbl.t;
  minor_gcs : int;
  major_gcs : int;
}

type state = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
}

let fail st ~cells msg =
  st.failed <- st.failed + cells;
  st.failures <- msg :: st.failures;
  Printf.eprintf "studybench: %s\n%!" msg

(* Checks one pass against the reference digest: unexplained degraded
   cells fail individually, a digest mismatch fails every cell. *)
let check_pass st ~label ~reference pass =
  st.attempted <- st.attempted + pass.cells;
  let digest = K.Stable_hash.string pass.rendered in
  if pass.unexplained <> [] then
    fail st ~cells:(List.length pass.unexplained)
      (Printf.sprintf "%s: degraded without a crashing fault plan: %s" label
         (String.concat ", " pass.unexplained));
  if digest <> reference then
    fail st ~cells:(pass.cells - List.length pass.unexplained)
      (Printf.sprintf "%s: output digest %s differs from reference %s" label
         (digest_hex digest) (digest_hex reference))

let guarded st w ~label f =
  match f () with
  | v -> Some v
  | exception e ->
      st.attempted <- st.attempted + (w.ncells * w.inputs);
      fail st ~cells:(w.ncells * w.inputs)
        (Printf.sprintf "%s raised %s" label (Printexc.to_string e));
      None

let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | status ->
      String.split_on_char '\n' status
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmHWM"; v ] ->
                 Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                     float_of_int kb /. 1024.0)
             | _ -> None)
  | exception Sys_error _ -> None

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)

let count counts name = Option.value (Hashtbl.find_opt counts name) ~default:0.0

let per_cell_p50 f records = median (List.map f records)

let layer_metrics ~jobs ~setup_spans ~overhead t =
  let c = count t.counts and total name = Spans.total name t.spans in
  let cell_s = Spans.durations "tailbench.run_single_node" t.spans in
  let map_s = total "par.map" in
  let busy_s = total "study.cell" in
  (* Queue wait: per domain, the gaps before each cell it ran, counted
     from the start of the enclosing par.map. *)
  let queue_wait_s =
    let maps = List.filter (fun (s : Spans.span) -> s.name = "par.map") t.spans in
    let cells = List.filter (fun (s : Spans.span) -> s.name = "study.cell") t.spans in
    List.fold_left
      (fun acc (m : Spans.span) ->
        let mine = List.filter (fun (s : Spans.span) -> s.parent = m.id) cells in
        let domains = List.sort_uniq compare (List.map (fun (s : Spans.span) -> s.domain) mine) in
        List.fold_left
          (fun acc d ->
            let ordered =
              List.sort (fun (a : Spans.span) b -> compare a.start b.start)
                (List.filter (fun (s : Spans.span) -> s.domain = d) mine)
            in
            fst
              (List.fold_left
                 (fun (acc, prev) (s : Spans.span) ->
                   (acc +. Float.max 0.0 (s.start -. prev), s.stop))
                 (acc, m.start) ordered))
          acc domains)
      0.0 maps
  in
  let records = t.tpass.records in
  let events = c "sim.events" in
  let instances = c "kernel.instances" in
  [
    ("syzgen.generate_s", "s", Spans.total "syzgen.generate" setup_spans);
    ("tailbench.compile_s", "s", Spans.total "tailbench.compile" setup_spans);
    ("tailbench.cell_s.p50", "s", median cell_s);
    ("tailbench.cell_s.max", "s", maximum cell_s);
    ("tailbench.requests", "count", c "tailbench.requests");
    ("env.deploy_s", "s", total "env.deploy");
    ("env.deploys", "count", c "env.deploys");
    ("sim.events", "count", events);
    ( "sim.events_per_s.p50", "1/s",
      per_cell_p50 (fun r -> float_of_int r.events /. r.host_s) records );
    ( "sim.minor_words_per_event.p50", "words/event",
      per_cell_p50
        (fun r -> if r.events = 0 then 0.0 else r.minor_words /. float_of_int r.events)
        records );
    ("gc.minor_collections", "count", float_of_int t.minor_gcs);
    ("gc.major_collections", "count", float_of_int t.major_gcs);
    ("kernel.lock_acquisitions", "count", c "kernel.lock_acquisitions");
    ("kernel.lock_contended", "count", c "kernel.lock_contended");
    ("kernel.lock_wait_ns", "ns", c "kernel.lock_wait_ns");
    ( "kernel.busy_fraction", "fraction",
      if instances = 0.0 then 0.0 else c "kernel.busy_fraction_sum" /. instances );
    ("varbench.harness_s", "s", total "varbench.harness");
    ("varbench.invocations", "count", c "varbench.invocations");
    ("varbench.retries", "count", c "varbench.retries");
    ("varbench.abandoned", "count", c "varbench.abandoned");
    ("fault.injections", "count", c "fault.injections");
    ("stats.summarize_s", "s", total "stats.summarize");
    ("report.render_s", "s", total "report.render");
    ("par.map_s", "s", map_s);
    ("par.busy_s", "s", busy_s);
    ( "par.utilization", "fraction",
      if map_s = 0.0 then 0.0 else busy_s /. (float_of_int jobs *. map_s) );
    ("par.queue_wait_s", "s", queue_wait_s);
    ("recov.journal_records", "count", c "recov.journal_records");
    ( "recov.flush_s", "s",
      total "recov.journal_record" +. total "recov.flush" );
    ("fileio.retries", "count", c "fileio.retries");
    ("trace.wall_s", "s", t.twall);
    ("trace.overhead_s", "s", overhead);
  ]

(* ------------------------------------------------------------------ *)
(* Output                                                               *)

let print_line s = print_string s; print_char '\n'; flush stdout

let write_spans ~path ~origin spans =
  let selfs = Spans.self_times spans in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun ((s : Spans.span), self) ->
          output_string oc
            (json_obj
               [
                 ("id", string_of_int s.id);
                 ("parent", string_of_int s.parent);
                 ("name", json_string s.name);
                 ("cell", string_of_int s.cell);
                 ("domain", string_of_int s.domain);
                 ("start_s", json_float (s.start -. origin));
                 ("dur_s", json_float (Spans.duration s));
                 ("self_s", json_float self);
               ]);
          output_char oc '\n')
        selfs)

let metrics_json ms =
  json_obj
    (List.map
       (fun (name, unit, v) ->
         (name, json_obj [ ("value", json_float v); ("unit", json_string unit) ]))
       ms)

(* ------------------------------------------------------------------ *)
(* One benchmark run                                                    *)

(* Set-ups per run, in blocks between runs of the reference loop:
   enough that their median is steady although one set-up takes
   milliseconds.  They generate the corpora of the default
   seed: the size of a generated corpus, and so the time to generate
   it, varies with the seed, and [setup_s] should move only when the
   set-up code does. *)
let setup_blocks = 10
let setup_block = 10

let json_list f xs = "[" ^ String.concat ", " (List.map f xs) ^ "]"

let context_json w ~seed ~seconds ~trace =
  json_obj
    [
      ( "context",
        json_obj
          [
            ("workload", json_string w.name);
            ("seed", string_of_int seed);
            ("input_seeds", json_list string_of_int (input_seeds w ~seed));
            ("setup_input_seeds", json_list string_of_int (input_seeds w ~seed:Pins.seed));
            ("jobs", string_of_int w.jobs);
            ("scale", json_string "quick");
            ("seconds", string_of_int seconds);
            ("trace", string_of_int trace);
            ("nproc", string_of_int (Domain.recommended_domain_count ()));
            ("ocaml", json_string Sys.ocaml_version);
            ("minor_heap_words", string_of_int (Gc.get ()).Gc.minor_heap_size);
            ("reference_loop_s", json_float Calib.reference_s);
            ( "commit",
              json_string
                (Option.value (Sys.getenv_opt "STUDYBENCH_COMMIT") ~default:"unknown") );
            ( "validation",
              json_string
                "the repo holds no hardware reference results: the model is \
                 unvalidated and no accuracy figure is reported" );
          ] );
    ]

type untraced_result = {
  upass : pass;
  uwall : float;  (* host seconds *)
  uscaled : float;  (* host seconds at the reference speed *)
  ucal : float list;  (* the reference loop's seconds around each part *)
  warm : bool;  (* not the process's first pass, which grows the heap *)
  words : float;  (* Gc.minor_words of the calling domain *)
}

(* Deterministic counts repeat exactly: across traced passes, and
   between the untraced passes and the first traced one. *)
let check_repeats st w ~untraced ~traced =
  (match traced with
  | first :: rest ->
      List.iteri
        (fun i t ->
          List.iter
            (fun name ->
              if count t.counts name <> count first.counts name then
                fail st ~cells:t.tpass.cells
                  (Printf.sprintf "traced pass %d: %s = %s, pass 1 had %s" (i + 2)
                     name (json_float (count t.counts name))
                     (json_float (count first.counts name))))
            deterministic_counts)
        rest
  | [] -> ());
  let repeat label get =
    let seen = List.filter_map (fun u -> get u.upass) untraced in
    let expected =
      match traced with t :: _ -> get t.tpass | [] -> List.nth_opt seen 0
    in
    Option.iter
      (fun e ->
        List.iter
          (fun v ->
            if v <> e then
              fail st ~cells:(w.ncells * w.inputs)
                (Printf.sprintf "%s: an untraced pass saw %d, expected %d" label v e))
          seen)
      expected
  in
  repeat "sim.events" (fun p -> p.total_events);
  repeat "varbench.invocations" (fun p -> p.invocations)

(* Per-cell records on stdout, spans (set-up and the last traced pass)
   to a file. *)
let print_trace ~out w ~seed ~setup_spans t =
  List.iter
    (fun r ->
      print_line
        (json_obj
           [
             ( "cell",
               json_obj
                 [
                   ("key", json_string r.key);
                   ("host_s", json_float r.host_s);
                   ("events", string_of_int r.events);
                   ( "minor_words_per_event",
                     json_float
                       (if r.events = 0 then 0.0 else r.minor_words /. float_of_int r.events) );
                 ] );
           ]))
    t.tpass.records;
  let path = Filename.concat out (Printf.sprintf "spans-%s-seed%d.jsonl" w.name seed) in
  let spans = setup_spans @ t.spans in
  let origin = List.fold_left (fun a (s : Spans.span) -> Float.min a s.start) infinity spans in
  write_spans ~path ~origin spans;
  print_line (json_obj [ ("spans", json_string path) ])

let run w ~seed ~seconds ~trace ~out ~perturb_pin =
  K.Fileio.ensure_dir out;
  let st = { attempted = 0; failed = 0; failures = [] } in
  (* Blocks of set-ups, with a run of the reference loop before each
     block and after the last. *)
  let setup_times, setup_loops =
    let blocks =
      List.init setup_blocks (fun _ ->
          let loop = Calib.time () in
          ( List.init setup_block (fun _ ->
                let inputs, dt = timed (fun () -> setup_once w ~seed:Pins.seed) in
                K.Pool.shutdown (pool_of inputs);
                dt),
            loop ))
    in
    (List.concat_map fst blocks, Calib.time () :: List.map snd blocks)
  in
  let setup_s = Calib.scale ~loop:(median setup_loops) (median setup_times) in
  (* One more at the workload's seed, traced, whose corpus and pool the
     run uses. *)
  Spans.start ();
  let inputs = setup_once w ~seed in
  Spans.stop ();
  let setup_spans = Spans.spans () in
  print_line (context_json w ~seed ~seconds ~trace);
  let pinned =
    if seed = Pins.seed then
      Option.map
        (fun d -> if perturb_pin then d lxor 1 else d)
        (List.assoc_opt w.name Pins.digests)
    else None
  in
  let reference = ref pinned in
  let check ~label pass =
    let digest = K.Stable_hash.string pass.rendered in
    let r = match !reference with Some r -> r | None -> digest in
    reference := Some r;
    check_pass st ~label ~reference:r pass
  in
  let passes = ref 0 in
  let untraced = ref [] in
  let untraced_pass i =
    let warm = !passes > 0 in
    incr passes;
    let label = Printf.sprintf "untraced pass %d" i in
    match
      guarded st w ~label (fun () ->
          (* Each input seed's part is timed between two runs of the
             reference loop, so that the scaling follows the host's
             speed within a pass of several parts. *)
          let wall = ref 0.0 and scaled = ref 0.0 and cal = ref [] and words = ref 0.0 in
          let each part =
            let before = loop_time (pool_of inputs) in
            let w0 = Gc.minor_words () in
            let r, dt =
              timed (fun () ->
                  let p = part () in
                  ignore (K.Stable_hash.string p.rendered : int);
                  p)
            in
            words := !words +. (Gc.minor_words () -. w0);
            let after = loop_time (pool_of inputs) in
            wall := !wall +. dt;
            scaled := !scaled +. Calib.scale ~loop:((before +. after) /. 2.0) dt;
            cal := after :: before :: !cal;
            r
          in
          let pass = over_inputs ~each w.untraced ~out inputs in
          pass.verify ();
          (pass, !wall, !scaled, List.rev !cal, !words))
    with
    | Some (pass, dt, scaled, cal, words) ->
        check ~label pass;
        untraced :=
          { upass = pass; uwall = dt; uscaled = scaled; ucal = cal; warm; words }
          :: !untraced
    | None -> ()
  in
  let traced = ref [] in
  let traced_pass i =
    let label = Printf.sprintf "traced pass %d" i in
    incr passes;
    let gc0 = Gc.quick_stat () in
    Spans.start ();
    let r =
      guarded st w ~label (fun () ->
          let ((pass, _) as r) =
            timed (fun () ->
                let pass = over_inputs w.traced ~out inputs in
                ignore (K.Stable_hash.string pass.rendered);
                pass)
          in
          pass.verify ();
          r)
    in
    Spans.stop ();
    let gc1 = Gc.quick_stat () in
    match r with
    | Some (pass, dt) ->
        check ~label pass;
        traced :=
          {
            tpass = pass;
            twall = dt;
            spans = Spans.spans ();
            counts = Spans.counts ();
            minor_gcs = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
            major_gcs = gc1.Gc.major_collections - gc0.Gc.major_collections;
          }
          :: !traced
    | None -> ()
  in
  (* Repeat [f] while the next pass, if as long as the last one, still
     ends within [seconds]; always run it once. *)
  let until_deadline f =
    let t0 = K.Clock.now_s () in
    let rec go i last =
      let elapsed = K.Clock.elapsed_s ~since:t0 in
      if i = 1 || (st.failures = [] && elapsed +. last <= float_of_int seconds)
      then begin
        let ts = K.Clock.now_s () in
        f i;
        go (i + 1) (K.Clock.elapsed_s ~since:ts)
      end
    in
    go 1 0.0
  in
  if trace = 0 then begin
    (* The traced pass supplies the event count when the untraced path
       cannot see the engines, and the per-cell minor words when cells
       run on several domains.  Run first, it also warms the heap. *)
    if (not w.sees_engines) || w.jobs > 1 then traced_pass 0;
    until_deadline untraced_pass
  end
  else begin
    (* Warm up, then alternate, so the overhead compares warm passes. *)
    untraced_pass 0;
    until_deadline (fun i ->
        traced_pass i;
        untraced_pass i)
  end;
  (* A jobs=N workload must render what jobs=1 renders. *)
  if w.jobs > 1 then
    K.Pool.with_pool ~jobs:1 (fun pool ->
        match
          guarded st w ~label:"jobs=1 reference" (fun () ->
              let pass =
                over_inputs w.untraced ~out
                  (List.map (fun (seed, s) -> (seed, { s with pool })) inputs)
              in
              pass.verify ();
              pass)
        with
        | Some pass -> check ~label:"jobs=1 reference" pass
        | None -> ());
  K.Pool.shutdown (pool_of inputs);
  let untraced = List.rev !untraced and traced = List.rev !traced in
  check_repeats st w ~untraced ~traced;
  let warm = match List.filter (fun u -> u.warm) untraced with [] -> untraced | w -> w in
  let wall_s = median (List.map (fun u -> u.uwall) warm) in
  let wall_ref_s = median (List.map (fun u -> u.uscaled) warm) in
  let last = match List.rev traced with t :: _ -> Some t | [] -> None in
  let events =
    let from_untraced = List.find_map (fun u -> u.upass.total_events) untraced in
    match (last, from_untraced) with
    | Some t, _ -> float_of_int (Option.value t.tpass.total_events ~default:0)
    | None, Some e -> float_of_int e
    | None, None -> 0.0
  in
  let words_per_event =
    if events = 0.0 then 0.0
    else if w.jobs = 1 then median (List.map (fun u -> u.words) untraced) /. events
    else
      match last with
      | Some t ->
          List.fold_left (fun a r -> a +. r.minor_words) 0.0 t.tpass.records /. events
      | None -> 0.0
  in
  let overhead =
    match traced with
    | [] -> 0.0
    | ts -> median (List.map (fun t -> t.twall) ts) -. wall_s
  in
  let e2e =
    [
      ("wall_ref_s", "s", wall_ref_s);
      ("setup_s", "s", setup_s);
      ("events_per_ref_s", "1/s", if wall_ref_s > 0.0 then events /. wall_ref_s else 0.0);
      ("minor_words_per_event", "words/event", words_per_event);
      ("peak_rss_mb", "MB", Option.value (peak_rss_mb ()) ~default:0.0);
    ]
  in
  List.iter
    (fun (name, _, v) ->
      if not (Float.is_finite v && v > 0.0) then
        fail st ~cells:0
          (Printf.sprintf "metric %s is %s, not a positive number" name (json_float v)))
    e2e;
  let failed_ratio =
    if st.attempted = 0 then 1.0 else float_of_int st.failed /. float_of_int st.attempted
  in
  let correct = st.failures = [] && st.attempted > 0 in
  if trace = 1 then Option.iter (print_trace ~out w ~seed ~setup_spans) last;
  print_line
    (json_obj
       [
         ( "summary",
           json_obj
             [
               ("failed_ratio", json_float failed_ratio);
               ( "digest",
                 json_string (Option.fold ~none:"none" ~some:digest_hex !reference) );
               ("pinned", string_of_bool (Option.is_some pinned));
               ("untraced_passes", string_of_int (List.length untraced));
               ("traced_passes", string_of_int (List.length traced));
               ("wall_s", json_float wall_s);
               ("wall_s_samples", json_list (fun u -> json_float u.uwall) untraced);
               ("wall_ref_s_samples", json_list (fun u -> json_float u.uscaled) untraced);
               ("reference_loop_s_samples",
                 json_list json_float (List.concat_map (fun u -> u.ucal) untraced));
               ("setup_raw_s", json_float (median setup_times));
               ("setup_raw_s_samples", json_list json_float setup_times);
               ("setup_reference_loop_s_samples", json_list json_float setup_loops);
               ("trace_overhead_s", json_float overhead);
               ("failures", json_list json_string (List.rev st.failures));
             ] );
       ]);
  let metrics =
    if trace = 0 then e2e
    else
      match last with
      | Some t -> layer_metrics ~jobs:w.jobs ~setup_spans ~overhead t
      | None -> []
  in
  print_line
    (json_obj
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int (max 1 st.attempted));
         ("failed", string_of_int st.failed);
         ("metrics", metrics_json metrics);
       ]);
  if correct then 0 else 1

(* ------------------------------------------------------------------ *)
(* Pins: each workload's digest at the default seed, computed from the
   study entry points alone ([--print-pins]). *)

let print_pins () =
  let inputs name =
    match List.find_opt (fun w -> w.name = name) workloads with
    | Some w -> input_seeds w ~seed:Pins.seed
    | None -> [ Pins.seed ]
  in
  let over name f =
    String.concat "" (List.map (fun seed -> f ~seed (E.default_corpus ~seed scale)) (inputs name))
  in
  let seed = Pins.seed in
  let corpus = E.default_corpus ~seed scale in
  K.Pool.with_pool ~jobs:1 (fun pool ->
      let fig3 = E.Fig3.run ~seed ~scale ~corpus ~pool () in
      let tail contended =
        render E.Fig3.pp
          {
            E.Fig3.cells =
              List.filter (fun (r : K.Runner.result) -> r.K.Runner.contended = contended)
                fig3.E.Fig3.cells;
          }
      in
      let varbench =
        over "varbench-paper" (fun ~seed corpus ->
            varbench_render
              (E.Table2.run ~seed ~scale ~corpus ~pool ())
              (E.Table3.run ~seed ~scale ~corpus ~pool ())
              (E.Fig2.run ~seed ~scale ~corpus ~pool ()))
      in
      let dose =
        over "dose-journal-par" (fun ~seed corpus ->
            render E.Dose.pp (E.Dose.run ~seed ~scale ~corpus ~pool ()))
      in
      List.iter
        (fun (name, rendered) ->
          Printf.printf "    (%S, 0x%s);\n" name (digest_hex (K.Stable_hash.string rendered)))
        [
          ("tail-contended", tail true);
          ("tail-isolated", tail false);
          ("varbench-paper", varbench);
          ("dose-journal-par", dose);
        ]);
  0

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       [--out DIR] [--perturb-pin]\n\
    \       main.exe --print-pins";
  2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | "--perturb-pin" :: rest -> parse (("perturb-pin", "1") :: acc) rest
    | "--print-pins" :: rest -> parse (("print-pins", "1") :: acc) rest
    | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        parse ((String.sub flag 2 (String.length flag - 2), value) :: acc) rest
    | [] -> Some acc
    | _ -> None
  in
  let code =
    match parse [] args with
    | None -> usage ()
    | Some opts -> (
        let get k = List.assoc_opt k opts in
        if get "print-pins" <> None then print_pins ()
        else
          match
            ( Option.bind (get "workload") (fun n ->
                  List.find_opt (fun w -> w.name = n) workloads),
              Option.bind (get "seed") int_of_string_opt,
              Option.bind (get "seconds") int_of_string_opt,
              Option.bind (get "trace") int_of_string_opt )
          with
          | Some w, Some seed, Some seconds, Some ((0 | 1) as trace) when seconds >= 0 ->
              run w ~seed ~seconds ~trace
                ~out:(Option.value (get "out") ~default:".studybench")
                ~perturb_pin:(get "perturb-pin" <> None)
          | _ -> usage ())
  in
  exit code
