(** Stock scenarios for the sanitizer suite: small, fast configurations
    of the repo's three workload families, plus a deliberately broken
    [Inversion] scenario (an AB/BA lock-order inversion at disjoint
    virtual times) that self-tests the lockdep analyzer, plus faulted
    variants that rerun varbench/tailbench under an armed kfault
    "crashy" plan — injections must stay deterministic and
    lockdep-clean — plus a [Specialized_varbench] variant running an
    fs-restricted corpus under a kspec-pruned kernel with the Enforce
    allowlist installed (daemon gating and the per-call policy check
    under the sanitizers), plus a [Recovered_bsp] variant running the
    supervised BSP synthesis under the crashy plan with the Readmit
    policy — the invariant analyzer's rank-transition checks assert the
    failover choreography (legal detector edges only, each
    Suspect -> Dead -> rejoin at most once per incident) — plus a
    [Parallel_sweep] variant fanning independent varbench cells across
    a {!Ksurf_par.Pool} with every completed cell funnelled through one
    mutex-guarded {!Ksurf_recov.Journal} (the parallel phase runs
    unobserved because probes are not thread-safe; the journal is
    verified on reload and one cell re-runs sequentially under
    [on_engine] for the sanitizers) — plus a [Tenancy] variant running
    a small churny adaptive {!Ksurf_tenant.Fleet}: lifecycle storms
    through the shared cgroup accounting locks, epoch-driven
    autoscaling and adaptive migration, all under the sanitizers —
    plus an [Adaptive_drift] variant running a small
    {!Ksurf_adapt.Driftbench} cell: per-rank controllers audit,
    promote, absorb a mid-run workload drift and re-specialize, with
    every policy hot-swap probe-visible so the invariant analyzer can
    assert the controller choreography (legal audit/enforce edges
    only, each swap ordinal used once). *)

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

val all : t list

val stock : t list
(** Scenarios the sanitizers must pass on; [Inversion] is the negative
    control and is excluded on purpose. *)

val to_string : t -> string
val of_string : string -> t option

val drift_cell :
  policy:Ksurf_adapt.Driftbench.policy ->
  seed:int ->
  Ksurf_adapt.Driftbench.config
(** The [Adaptive_drift] cell (dose 2.0, 24 epochs, 12 programs per
    epoch, 16 corpus programs, drift at 8e6 ns) under [policy]; the
    [drift --smoke] gate runs it too. *)

val run : t -> seed:int -> on_engine:(Ksurf_sim.Engine.t -> unit) -> unit
(** Execute one scenario run.  [on_engine] is called on every engine
    the scenario creates, before anything is spawned on it — attach
    probes there.  Deterministic for a given seed. *)
