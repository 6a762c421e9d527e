(* Stock scenarios for the sanitizer suite: small, fast configurations
   of the repo's workload families, plus a deliberately broken
   [Inversion] scenario that self-tests the lockdep analyzer (and gives
   [ksurf_cli analyze] something to exit nonzero on).

   Every scenario calls [on_engine] on each engine it creates *before*
   running it, so callers can attach probes to the full event stream,
   and returns its accounting findings: checks over its own result
   that no probe can see. *)

module Engine = Ksurf_sim.Engine
module Lock = Ksurf_sim.Lock
module Env = Ksurf_env.Env
module Partition = Ksurf_env.Partition
module Generator = Ksurf_syzgen.Generator
module Harness = Ksurf_varbench.Harness
module Apps = Ksurf_tailbench.Apps
module Runner = Ksurf_tailbench.Runner
module Cluster = Ksurf_cluster.Cluster

type t =
  | Varbench
  | Tailbench
  | Bsp
  | Inversion
  | Faulted_varbench
  | Faulted_tailbench
  | Specialized_varbench
  | Recovered_bsp
  | Parallel_sweep
  | Tenancy
  | Adaptive_drift
  | Journalled_faults

let all =
  [
    Varbench;
    Tailbench;
    Bsp;
    Inversion;
    Faulted_varbench;
    Faulted_tailbench;
    Specialized_varbench;
    Recovered_bsp;
    Parallel_sweep;
    Tenancy;
    Adaptive_drift;
    Journalled_faults;
  ]

let to_string = function
  | Varbench -> "varbench"
  | Tailbench -> "tailbench"
  | Bsp -> "bsp"
  | Inversion -> "inversion"
  | Faulted_varbench -> "faulted-varbench"
  | Faulted_tailbench -> "faulted-tailbench"
  | Specialized_varbench -> "specialized-varbench"
  | Recovered_bsp -> "recovered-bsp"
  | Parallel_sweep -> "parallel-sweep"
  | Tenancy -> "tenancy"
  | Adaptive_drift -> "adaptive-drift"
  | Journalled_faults -> "journalled-faults"

let of_string s = List.find_opt (fun t -> to_string t = s) all

(* Scenarios the sanitizers must pass on; [Inversion] is the negative
   control and is excluded on purpose.  The faulted scenarios run under
   an armed kfault plan: injections must stay deterministic and
   lockdep-clean too. *)
let stock =
  [
    Varbench;
    Tailbench;
    Bsp;
    Faulted_varbench;
    Faulted_tailbench;
    Specialized_varbench;
    Recovered_bsp;
    Parallel_sweep;
    Tenancy;
    Adaptive_drift;
    Journalled_faults;
  ]

(* --- accounting --------------------------------------------------------- *)

(* Each failed check is one [accounting] finding, coded by its
   scenario. *)
let failures scenario checks =
  List.filter_map
    (fun (failed, message) ->
      if failed then
        Some
          (Finding.make ~severity:Finding.Error ~check:"accounting"
             ~code:(to_string scenario) ~message ())
      else None)
    checks

let specialized_accounting ~denials (r : Harness.result) =
  failures Specialized_varbench
    [
      ( denials > 0,
        Printf.sprintf
          "%d policy denials (%d dropped by the harness): the allowlist must \
           cover its own profile"
          denials r.Harness.denied_calls );
    ]

(* SLO accounting must be internally consistent whatever the latencies
   came out to. *)
let tenancy_accounting (r : Ksurf_tenant.Fleet.result) =
  let open Ksurf_tenant.Fleet in
  failures Tenancy
    [
      (r.completed <= 0, "no requests completed");
      ( r.attainment < 0.0 || r.attainment > 1.0,
        Printf.sprintf "attainment %.3f outside [0,1]" r.attainment );
      ( r.slo_met > r.measured,
        Printf.sprintf "slo_met %d > measured %d" r.slo_met r.measured );
      ( r.measured > r.tenants + r.arrivals,
        Printf.sprintf "measured %d exceeds tenants ever admitted" r.measured );
      ( r.cgroup_destroys > r.cgroup_creates,
        Printf.sprintf "cgroup destroys %d > creates %d" r.cgroup_destroys
          r.cgroup_creates );
      ( r.replica_imbalance <> 0,
        Printf.sprintf
          "replica imbalance %d: live replicas diverged from autoscaler \
           targets"
          r.replica_imbalance );
      ( r.departures > r.arrivals + r.tenants,
        Printf.sprintf "departures %d exceed population" r.departures );
    ]

(* The controller choreography must be internally consistent, every
   hot-swap probe-visible, and the headline claim must hold even at
   scenario scale: adaptive strictly beats static on post-drift false
   positives while retaining most of its surface reduction. *)
let drift_accounting ~(adaptive : Ksurf_adapt.Driftbench.result)
    ~(static : Ksurf_adapt.Driftbench.result) ~transitions =
  let open Ksurf_adapt.Driftbench in
  let r = adaptive and s = static in
  failures Adaptive_drift
    [
      (r.calls <= 0, "no calls issued");
      ( r.drifts <> 1,
        Printf.sprintf "expected exactly 1 workload drift, saw %d" r.drifts );
      (r.drift_at_ns = None, "drift never fired (sink not called)");
      ( r.fp_rate < 0.0 || r.fp_rate > 1.0,
        Printf.sprintf "fp rate %.4f outside [0,1]" r.fp_rate );
      ( r.denied_post_drift > r.denied,
        Printf.sprintf "post-drift denials %d exceed total %d"
          r.denied_post_drift r.denied );
      ( r.calls_post_drift > r.calls,
        Printf.sprintf "post-drift calls %d exceed total %d" r.calls_post_drift
          r.calls );
      ( r.swaps <> r.ranks + r.promotions + r.demotions,
        Printf.sprintf
          "swap count %d inconsistent: %d ranks + %d promotions + %d \
           demotions"
          r.swaps r.ranks r.promotions r.demotions );
      ( transitions <> r.swaps,
        Printf.sprintf "probe saw %d policy transitions, env counted %d swaps"
          transitions r.swaps );
      ( r.promotions < r.ranks,
        Printf.sprintf
          "only %d promotions across %d ranks: some rank never left audit"
          r.promotions r.ranks );
      ( r.demotions < 1,
        Printf.sprintf "dose %.1f drift triggered no demotion" r.dose );
      (s.denied = 0, "static policy denied nothing under drift");
      ( r.fp_rate >= s.fp_rate,
        Printf.sprintf "adaptive fp %.4f does not beat static %.4f" r.fp_rate
          s.fp_rate );
      ( s.reduction > 0.0 && r.reduction < 0.4 *. s.reduction,
        Printf.sprintf
          "adaptive retains only %.0f%% of static's surface reduction"
          (100.0 *. r.reduction /. s.reduction) );
    ]

type journal_replay = {
  cells : int;
  executed : int;
  converged : bool;
  lost : string list;
  litter : int;
  io : Ksurf_dur.Faultio.stats;
}

(* Every cell runs once and lands in the journal, recovery leaves no
   temp file behind, and the plan's three mechanisms all fired. *)
let journalled_accounting (r : journal_replay) =
  let io = r.io in
  failures Journalled_faults
    [
      (not r.converged, "journal never converged");
      ( r.executed <> r.cells,
        Printf.sprintf "%d cells executed, expected %d" r.executed r.cells );
      (r.lost <> [], "cells lost: " ^ String.concat ", " r.lost);
      (r.litter <> 0, "temp litter survived recovery");
      (io.Ksurf_dur.Faultio.crashes < 1, "scheduled crash never fired");
      (io.Ksurf_dur.Faultio.enospc < 1, "ENOSPC window never hit");
      (io.Ksurf_dur.Faultio.transients < 1, "no transient faults injected");
    ]

(* --- workloads ---------------------------------------------------------- *)

let small_corpus ~seed =
  (Generator.run
     ~params:{ Generator.default_params with Generator.seed; target_programs = 8 }
     ())
    .Generator.corpus

let app () =
  match Apps.by_name "silo" with Some a -> a | None -> List.hd Apps.all

(* A 2-unit native deployment on a fresh engine, probes attached. *)
let native_env ~seed ~on_engine =
  let engine = Engine.create ~seed () in
  on_engine engine;
  Env.deploy ~engine Env.Native
    (Partition.equal_split ~units:2 ~total_cores:8 ~total_mem_mb:8192)

let varbench_params = { Harness.iterations = 4; warmup_iterations = 1 }

let tailbench_config ~seed =
  {
    Runner.default_config with
    Runner.requests = 250;
    seed;
    units = 2;
    unit_cores = 4;
    unit_mem_mb = 2048;
  }

let bsp_config ~seed =
  {
    Cluster.default_config with
    Cluster.nodes_simulated = 1;
    sim_iterations_per_node = 6;
    warmup_iterations = 1;
    requests_per_iteration = 10;
    units = 2;
    unit_cores = 4;
    unit_mem_mb = 2048;
    seed;
  }

let run_varbench ~seed ~on_engine =
  let env = native_env ~seed ~on_engine in
  let corpus = small_corpus ~seed in
  ignore (Harness.run ~env ~corpus ~params:varbench_params ())

let run_tailbench ~seed ~on_engine =
  ignore
    (Runner.run_single_node ~app:(app ()) ~kind:Env.Native ~contended:false
       ~config:(tailbench_config ~seed) ~on_engine ())

let run_bsp ~seed ~on_engine =
  ignore
    (Cluster.run ~app:(app ()) ~kind:Env.Native ~contended:false
       ~config:(bsp_config ~seed) ~on_engine ())

(* AB in one process, BA in another, far enough apart in virtual time
   that the run completes — the cycle is only *potential*, which is
   exactly what lockdep exists to catch. *)
let run_inversion ~seed ~on_engine =
  let engine = Engine.create ~seed () in
  on_engine engine;
  let a = Lock.create ~engine ~name:"inv.alpha" in
  let b = Lock.create ~engine ~name:"inv.beta" in
  Engine.spawn engine (fun () ->
      Lock.acquire a;
      Engine.delay 5.0;
      Lock.acquire b;
      Engine.delay 1.0;
      Lock.release b;
      Lock.release a);
  Engine.spawn ~at:20.0 engine (fun () ->
      Lock.acquire b;
      Engine.delay 5.0;
      Lock.acquire a;
      Engine.delay 1.0;
      Lock.release a;
      Lock.release b);
  Engine.run engine

(* Faulted variants: same workloads under an armed kfault plan.  The
   "crashy" preset exercises every injection mechanism including a rank
   crash, so these scenarios cover barrier departure (varbench) and
   crash/restart requeueing (tailbench) under the sanitizers. *)
let fault_plan () =
  match Ksurf_fault.Plan.preset "crashy" with
  | Some p -> p
  | None -> assert false

let run_faulted_varbench ~seed ~on_engine =
  let env = native_env ~seed ~on_engine in
  let kf = Ksurf_fault.Kfault.arm ~env ~plan:(fault_plan ()) ~seed () in
  let corpus = small_corpus ~seed in
  ignore
    (Harness.run ~env ~corpus ~params:varbench_params
       ~straggler_timeout_ns:5e9 ());
  Ksurf_fault.Kfault.disarm kf

let run_faulted_tailbench ~seed ~on_engine =
  let kf = ref None in
  let on_env env =
    kf := Some (Ksurf_fault.Kfault.arm ~env ~plan:(fault_plan ()) ~seed ())
  in
  ignore
    (Runner.run_single_node ~app:(app ()) ~kind:Env.Native ~contended:false
       ~config:(tailbench_config ~seed) ~request_timeout_ns:1e9 ~on_engine
       ~on_env ());
  Option.iter Ksurf_fault.Kfault.disarm !kf

(* Specialized variant: varbench on an fs-restricted corpus over a
   multikernel deployment of kspec-pruned kernels, with the Enforce
   allowlist installed on every rank.  Per-unit kernel boot, daemon
   gating and the per-call policy check must stay deterministic and
   lockdep-clean, and (the allowlist matching the restricted corpus
   exactly) produce zero denials. *)
let run_specialized_varbench ~seed ~on_engine =
  let module Profile = Ksurf_spec.Profile in
  let module Specializer = Ksurf_spec.Specializer in
  let module Category = Ksurf_kernel.Category in
  let corpus =
    let full = small_corpus ~seed in
    match Profile.restrict full ~keep:[ Category.File_io; Category.Fs_mgmt ] with
    | Some c -> c
    | None -> full
  in
  let spec =
    Specializer.compile (Profile.of_corpus ~name:"specialized-varbench" corpus)
  in
  let engine = Engine.create ~seed () in
  on_engine engine;
  let env =
    Env.deploy ~engine
      ~kernel_config:(Specializer.kernel_config spec)
      Env.Multikernel
      (Partition.equal_split ~units:2 ~total_cores:8 ~total_mem_mb:8192)
  in
  Specializer.install_all env spec;
  let result = Harness.run ~env ~corpus ~params:varbench_params () in
  let denials =
    List.fold_left
      (fun acc rank -> acc + Specializer.denials env ~rank)
      0
      (List.init (Env.rank_count env) Fun.id)
  in
  specialized_accounting ~denials result

(* Recovered variant: the BSP synthesis under elastic supervision with
   the crashy plan plus random crashes, Readmit policy.  Every
   superstep engine carries heartbeats, detector verdicts and recovery
   actions; the invariant analyzer's rank-transition checks then assert
   the failover choreography itself — legal detector edges only, no
   discontinuous states, and each Suspect -> Dead -> rejoin edge at
   most once per incident. *)
let run_recovered_bsp ~seed ~on_engine =
  let module Supervisor = Ksurf_recov.Supervisor in
  let config = { (bsp_config ~seed) with Cluster.iterations = 8 } in
  let recovery =
    {
      Supervisor.default_config with
      Supervisor.policy = Supervisor.Readmit;
      crash_rate = 0.01;
    }
  in
  ignore
    (Cluster.run ~app:(app ()) ~kind:Env.Native ~contended:false ~config
       ~on_engine ~recovery ~plan:(fault_plan ()) ())

(* Parallel-sweep variant: a mini sweep of independent varbench cells
   fanned across a domain pool, every completed cell funnelled through
   one mutex-guarded journal — the single-writer discipline the kpar
   sweeps rely on.  Sanitizer probes are not thread-safe, so the
   parallel phase runs unobserved; the journal is then reloaded and
   verified (every cell recorded exactly once, batched persists
   included), and one cell re-runs sequentially under [on_engine] so
   the sanitizers still see a full event stream.  Any journal
   discrepancy raises, which [ksurf_cli analyze] reports as a failed
   scenario. *)
let run_parallel_sweep ~seed ~on_engine =
  let module Pool = Ksurf_par.Pool in
  let module Journal = Ksurf_recov.Journal in
  let cell ~observe i =
    let cell_seed = seed + (31 * i) in
    let env =
      native_env ~seed:cell_seed
        ~on_engine:(if observe then on_engine else ignore)
    in
    let corpus = small_corpus ~seed:cell_seed in
    ignore
      (Harness.run ~env ~corpus
         ~params:{ Harness.iterations = 2; warmup_iterations = 1 }
         ())
  in
  let key i = Printf.sprintf "cell:%d" i in
  let path = Filename.temp_file "ksurf-parsweep" ".journal" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let journal = Journal.load ~flush_every:2 ~path () in
      let cells = List.init 6 Fun.id in
      Pool.with_pool ~jobs:4 (fun pool ->
          ignore
            (Pool.map ~pool
               (fun i ->
                 cell ~observe:false i;
                 Journal.record journal (key i))
               cells));
      Journal.flush journal;
      let reloaded = Journal.load ~path () in
      List.iter
        (fun i ->
          if not (Journal.mem reloaded (key i)) then
            failwith
              (Printf.sprintf
                 "parallel-sweep: cell %d missing from the journal" i))
        cells;
      if List.length (Journal.cells reloaded) <> List.length cells then
        failwith "parallel-sweep: journal has duplicate or spurious cells");
  cell ~observe:true 0

(* Tenancy variant: a small churny adaptive fleet.  Tenant admission
   and departure drive cgroup create/destroy storms through the shared
   accounting locks (Cgroup_css -> Tasklist nesting), autoscaling reads
   epoch quantiles, and adaptive placement may migrate tenants between
   substrates mid-run — all of which must stay deterministic and
   lockdep-clean under the sanitizers. *)
let run_tenancy ~seed ~on_engine =
  let module Fleet = Ksurf_tenant.Fleet in
  let module Policy = Ksurf_tenant.Policy in
  tenancy_accounting
    (Fleet.run ~on_engine
       {
         Fleet.default_config with
         Fleet.tenants = 16;
         churn_per_day = 16.0;
         policy = Policy.Adaptive;
         seed;
         host_cores = 16;
         day_ns = 4e8;
         mean_rate_per_s = 40.0;
         epoch_ns = 5e7;
       })

(* Adaptive-drift variant: a small kadapt driftbench cell — per-rank
   controllers audit, promote to Enforce, absorb a workload drift
   (demote, re-learn, re-promote), all policy hot-swaps flowing through
   [Env.swap_policy]'s probe-visible transitions.  The invariant
   analyzer's policy-protocol checks then assert the controller
   choreography itself: legal audit/enforce edges only, no
   discontinuous policy states, each swap ordinal used once.  The
   drift fires at a fixed virtual time, and at some seeds the whole
   cell is over in about a millisecond, so the trigger sits at 1 ms:
   later triggers silently never fire at seed 7. *)
let drift_cell ~policy ~seed =
  let module Driftbench = Ksurf_adapt.Driftbench in
  {
    Driftbench.default_config with
    Driftbench.policy;
    dose = 2.0;
    epochs = 24;
    programs_per_epoch = 12;
    corpus_programs = 16;
    drift_at_ns = 1_000_000.0;
    seed;
  }

(* The accounting counts every audit/enforce hot-swap off the probe
   stream, and runs the same cell under the static policy, unobserved,
   as the baseline adaptive must beat. *)
let run_adaptive_drift ~seed ~on_engine =
  let module Driftbench = Ksurf_adapt.Driftbench in
  let transitions = ref 0 in
  let count engine =
    on_engine engine;
    Engine.add_probe engine (function
      | Engine.Rank_transition { to_state = "audit" | "enforce"; _ } ->
          incr transitions
      | _ -> ())
  in
  let adaptive =
    Driftbench.run ~on_engine:count
      (drift_cell ~policy:Driftbench.Adaptive ~seed)
  in
  let static = Driftbench.run (drift_cell ~policy:Driftbench.Static ~seed) in
  drift_accounting ~adaptive ~static ~transitions:!transitions

(* Journalled-faults variant: the kdur durability machinery wired into
   a live engine workload.  Three varbench cells each record their
   completion in a Recov_journal whose host I/O runs under an armed
   fault plan (transients, an ENOSPC window, a scheduled crash);
   attempts repeat until the journal converges, recovering from every
   injected death and draining every deferred persist.  A cell whose
   completion died before persisting is legitimately recomputed, so
   executions are memoised to keep the engine event stream
   replay-identical. *)
let journalled_plan =
  {
    Ksurf_dur.Durplan.name = "journalled";
    actions =
      [
        Ksurf_dur.Durplan.Transient { rate = 0.4; eintr_share = 0.5 };
        Ksurf_dur.Durplan.Enospc_window { from_op = 4; until_op = 8 };
        Ksurf_dur.Durplan.Crash_at { op = 2 };
      ];
  }

let run_journalled_faults ~seed ~on_engine =
  let module Journal = Ksurf_recov.Journal in
  let module Faultio = Ksurf_dur.Faultio in
  let module Fileio = Ksurf_util.Fileio in
  let dir = Filename.temp_dir "ksurf-journalled" "" in
  let cleanup () =
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let path = Filename.concat dir "cells.journal" in
  let cells = [ "varbench:0"; "varbench:1"; "varbench:2" ] in
  let inj = Faultio.make ~root:dir ~seed journalled_plan in
  let executed = ref [] in
  let attempt () =
    ignore (Fileio.sweep_tmp ~dir);
    let j = Journal.load ~flush_every:1 ~path () in
    List.iter
      (fun cell ->
        if not (Journal.mem j cell) then begin
          if not (List.mem cell !executed) then begin
            run_varbench ~seed ~on_engine;
            executed := cell :: !executed
          end;
          Journal.record j cell
        end)
      cells;
    Journal.flush j;
    not (Journal.persist_pending j)
  in
  (* An ENOSPC deferral clears as ops advance; a crash is recovered by
     the next attempt. *)
  let rec converge attempts =
    attempts > 0
    &&
    match Faultio.with_faults inj attempt with
    | true -> true
    | false -> converge (attempts - 1)
    | exception Ksurf_util.Iohook.Crashed _ -> converge (attempts - 1)
  in
  let converged = converge 50 in
  let reloaded = Journal.load ~path () in
  journalled_accounting
    {
      cells = List.length cells;
      executed = List.length !executed;
      converged;
      lost = List.filter (fun c -> not (Journal.mem reloaded c)) cells;
      litter = Fileio.sweep_tmp ~dir;
      io = Faultio.stats inj;
    }

let run t ~seed ~on_engine =
  let clean f =
    f ~seed ~on_engine;
    []
  in
  match t with
  | Varbench -> clean run_varbench
  | Tailbench -> clean run_tailbench
  | Bsp -> clean run_bsp
  | Inversion -> clean run_inversion
  | Faulted_varbench -> clean run_faulted_varbench
  | Faulted_tailbench -> clean run_faulted_tailbench
  | Specialized_varbench -> run_specialized_varbench ~seed ~on_engine
  | Recovered_bsp -> clean run_recovered_bsp
  | Parallel_sweep -> clean run_parallel_sweep
  | Tenancy -> run_tenancy ~seed ~on_engine
  | Adaptive_drift -> run_adaptive_drift ~seed ~on_engine
  | Journalled_faults -> run_journalled_faults ~seed ~on_engine
