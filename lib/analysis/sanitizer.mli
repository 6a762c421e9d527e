(** The one sanitizer harness.  [analyze] and every [--smoke] gate run
    their workload through {!check}.

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

val pp_replay : Format.formatter -> Determinism.result -> unit
(** ["replay: N vs M events, hash H1 vs H2 — identical"] (or
    [DIVERGENT]). *)

val pp_outcome :
  scenario:Scenarios.t -> seed:int -> Format.formatter -> 'a outcome -> unit
(** Summary line followed by each finding (or an explicit "all checks
    clean"). *)
