(** Stock scenarios for the sanitizer suite: small, fast configurations
    of the repo's workload families, each run under {!Sanitizer}.

    - [Varbench], [Tailbench], [Bsp]: the three paper workloads.
    - [Inversion]: an AB/BA lock-order inversion at disjoint virtual
      times, the negative control that self-tests lockdep.
    - [Faulted_varbench], [Faulted_tailbench]: the same workloads under
      an armed kfault "crashy" plan; injections must stay deterministic
      and lockdep-clean.
    - [Specialized_varbench]: an fs-restricted corpus on kspec-pruned
      multikernel units with the Enforce allowlist installed.
    - [Recovered_bsp]: the supervised BSP synthesis failing over under
      the crashy plan; the rank-transition invariants assert the
      failover choreography.
    - [Parallel_sweep]: varbench cells fanned across a
      {!Ksurf_par.Pool} into one journal (the parallel phase runs
      unobserved, since probes are not thread-safe; one cell re-runs
      under [on_engine]).
    - [Tenancy]: a small churny adaptive {!Ksurf_tenant.Fleet}.
    - [Adaptive_drift]: a small {!Ksurf_adapt.Driftbench} cell whose
      every policy hot-swap is probe-visible.
    - [Journalled_faults]: varbench cells journalled under an armed
      {!Ksurf_dur.Durplan} (transients, an ENOSPC window, a crash).

    Besides the probe-level checks, a scenario returns its
    {e accounting} findings: checks over its own result, each written
    below as a pure function of that result. *)

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
    epoch, 16 corpus programs, drift at 1e6 ns) under [policy]. *)

val run :
  t -> seed:int -> on_engine:(Ksurf_sim.Engine.t -> unit) -> Finding.t list
(** Execute one scenario run and return its accounting findings (check
    [accounting], code the scenario name; [[]] when consistent).
    [on_engine] is called on every engine the scenario creates, before
    anything is spawned on it — attach probes there.  Deterministic for
    a given seed. *)

(** {1 Accounting checks} *)

val specialized_accounting :
  denials:int -> Ksurf_varbench.Harness.result -> Finding.t list
(** [Specialized_varbench]: zero policy denials, since the allowlist
    is compiled from the very corpus it replays. *)

val tenancy_accounting : Ksurf_tenant.Fleet.result -> Finding.t list
(** [Tenancy]: requests completed, attainment in [0,1], [slo_met <=
    measured <= tenants + arrivals], cgroup destroys [<=] creates, zero
    replica imbalance, departures within the population. *)

val drift_accounting :
  adaptive:Ksurf_adapt.Driftbench.result ->
  static:Ksurf_adapt.Driftbench.result ->
  transitions:int ->
  Finding.t list
(** [Adaptive_drift]: exactly one drift that fired, consistent call,
    denial and swap counts, [transitions] (audit/enforce hot-swaps seen
    on the probe stream) equal to the swaps, every rank promoted, at
    least one demotion, and the adaptive cell strictly beating the
    [static] one on false positives while keeping 40% of its surface
    reduction. *)

type journal_replay = {
  cells : int;  (** cells the workload journals *)
  executed : int;  (** distinct cells actually run *)
  converged : bool;  (** the journal reached a fully persisted state *)
  lost : string list;  (** cells missing from the reloaded journal *)
  litter : int;  (** temp files left after recovery *)
  io : Ksurf_dur.Faultio.stats;
}

val journalled_accounting : journal_replay -> Finding.t list
(** [Journalled_faults]: converged, every cell run exactly once and
    none lost, no temp litter, and the plan's crash, ENOSPC window and
    transients all fired. *)
