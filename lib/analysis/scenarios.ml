(* Stock scenarios for the sanitizer suite: small, fast configurations
   of the repo's three workload families, plus a deliberately broken
   [Inversion] scenario that self-tests the lockdep analyzer (and gives
   [ksurf_cli analyze] something to exit nonzero on).

   Every scenario calls [on_engine] on each engine it creates *before*
   running it, so callers can attach probes to the full event stream. *)

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
  ]

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
  ignore (Harness.run ~env ~corpus ~params:varbench_params ())

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
  ignore
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
   controllers audit, promote to Enforce, absorb a mid-run workload
   drift (demote, re-learn, re-promote), all policy hot-swaps flowing
   through [Env.swap_policy]'s probe-visible transitions.  The
   invariant analyzer's policy-protocol checks then assert the
   controller choreography itself: legal audit/enforce edges only, no
   discontinuous policy states, each swap ordinal used once.  The same
   cell is the [drift --smoke] gate's. *)
let drift_cell ~policy ~seed =
  let module Driftbench = Ksurf_adapt.Driftbench in
  {
    Driftbench.default_config with
    Driftbench.policy;
    dose = 2.0;
    epochs = 24;
    programs_per_epoch = 12;
    corpus_programs = 16;
    drift_at_ns = 8_000_000.0;
    seed;
  }

let run_adaptive_drift ~seed ~on_engine =
  ignore
    (Ksurf_adapt.Driftbench.run ~on_engine
       (drift_cell ~policy:Ksurf_adapt.Driftbench.Adaptive ~seed))

let run t ~seed ~on_engine =
  match t with
  | Varbench -> run_varbench ~seed ~on_engine
  | Tailbench -> run_tailbench ~seed ~on_engine
  | Bsp -> run_bsp ~seed ~on_engine
  | Inversion -> run_inversion ~seed ~on_engine
  | Faulted_varbench -> run_faulted_varbench ~seed ~on_engine
  | Faulted_tailbench -> run_faulted_tailbench ~seed ~on_engine
  | Specialized_varbench -> run_specialized_varbench ~seed ~on_engine
  | Recovered_bsp -> run_recovered_bsp ~seed ~on_engine
  | Parallel_sweep -> run_parallel_sweep ~seed ~on_engine
  | Tenancy -> run_tenancy ~seed ~on_engine
  | Adaptive_drift -> run_adaptive_drift ~seed ~on_engine
