(** The one sanitizer harness.  [analyze], [inject] and the tier-1
    scenario tests run their workload through {!check}.

    The protocol is two runs of the same workload.  The first run
    carries lockdep and invariants, with one analyzer state per engine
    the workload creates.  Both runs feed the determinism checker.  An
    exception on either run becomes a [crash] finding instead of
    aborting the analysis; a crash ends the protocol, so the replay
    comparison is skipped.  Without [Determinism] the workload runs
    once. *)

type check = Lockdep | Invariants | Determinism

val all_checks : check list

val check_name : check -> string
val check_of_string : string -> check option

val checks_of_string : string -> (check list, string) Stdlib.result
(** Parse a comma-separated selection, e.g. ["lockdep,determinism"].
    The first unknown name is returned as [Error]. *)

type 'a outcome = {
  checks : check list;
  findings : Finding.t list;  (** sorted: errors first *)
  replay : Determinism.result option;
      (** both runs compared; [None] without [Determinism] or after a
          crash *)
  events : int;  (** probe events observed across all runs *)
  runs : int;  (** workload executions performed *)
  result : 'a option;  (** the last run's result; [None] if it crashed *)
}

val check :
  ?checks:check list ->
  (on_engine:(Ksurf_sim.Engine.t -> unit) -> 'a) ->
  'a outcome
(** [check workload] runs [workload ~on_engine] under the protocol
    above ([checks] defaults to {!all_checks}).  The workload must call
    [on_engine] on every engine it creates, before anything is spawned
    on it, and must be deterministic for a fixed seed. *)

val scenario :
  ?checks:check list -> Scenarios.t -> seed:int -> unit outcome
(** {!check} over one {!Scenarios.run}, with the accounting findings of
    every run added to the outcome's findings (a failure seen on both
    runs counts once).  This is what [analyze] and the stock-scenario
    test gate on. *)

val pp_outcome : label:string -> Format.formatter -> 'a outcome -> unit
(** ["<label> checks=...: N finding(s), E events, R run(s)"] followed
    by each finding (or an explicit "all checks clean"). *)
