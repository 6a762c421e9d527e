(* The one sanitizer harness: two runs of a workload, lockdep and
   invariants on every engine of the first, determinism across both.
   An exception on either run becomes a crash finding and ends the
   protocol. *)

module Engine = Ksurf_sim.Engine

type check = Lockdep | Invariants | Determinism

let all_checks = [ Lockdep; Invariants; Determinism ]

let check_name = function
  | Lockdep -> "lockdep"
  | Invariants -> "invariants"
  | Determinism -> "determinism"

let check_of_string s = List.find_opt (fun c -> check_name c = s) all_checks

(* "lockdep,determinism" -> Ok [Lockdep; Determinism]; first unknown
   name is returned as the error. *)
let checks_of_string s =
  let names =
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun n -> n <> "")
  in
  List.fold_left
    (fun acc name ->
      match acc with
      | Error _ -> acc
      | Ok checks -> (
          match check_of_string name with
          | Some c -> Ok (checks @ [ c ])
          | None -> Error name))
    (Ok []) names

type 'a outcome = {
  checks : check list;
  findings : Finding.t list;
  replay : Determinism.result option;
  events : int;  (** probe events observed across all runs *)
  runs : int;  (** workload executions performed *)
  result : 'a option;  (** the last run's result; [None] if it crashed *)
}

let crash_finding exn =
  match exn with
  | Engine.Process_error (ctx, inner) ->
      Finding.make ~severity:Finding.Error ~check:"crash" ~code:"process-error"
        ~message:
          (Printf.sprintf "simulation process crashed %s: %s" ctx
             (Printexc.to_string inner))
        ()
  | exn ->
      Finding.make ~severity:Finding.Error ~check:"crash" ~code:"exception"
        ~message:(Printf.sprintf "workload raised: %s" (Printexc.to_string exn))
        ()

(* Attach the selected static analyzers to one engine; the returned
   thunk reports their findings once the run is over.  Leak/stuck
   checks only apply when the engine genuinely ran out of events: runs
   stopped by a predicate (with background daemons still pending)
   legitimately leave state in flight. *)
let attach checks engine =
  let lockdep =
    if List.mem Lockdep checks then Some (Lockdep.create ()) else None
  in
  let invariants =
    if List.mem Invariants checks then Some (Invariants.create ()) else None
  in
  Option.iter (fun s -> Engine.add_probe engine (Lockdep.on_event s)) lockdep;
  Option.iter
    (fun s -> Engine.add_probe engine (Invariants.on_event s))
    invariants;
  fun () ->
    let drained = Engine.pending engine = 0 in
    Option.fold ~none:[] ~some:(Lockdep.finish ~drained) lockdep
    @ Option.fold ~none:[] ~some:(Invariants.finish ~drained) invariants

let check ?(checks = all_checks) workload =
  let findings = ref [] in
  let events = ref 0 in
  let runs = ref 0 in
  let result = ref None in
  let crashed = ref false in
  let add fs = findings := !findings @ fs in
  let static = List.exists (fun c -> c <> Determinism) checks in
  let execute ~probe =
    if not !crashed then begin
      let first = !runs = 0 in
      incr runs;
      let finishers = ref [] in
      let on_engine engine =
        Engine.add_probe engine (fun info ->
            incr events;
            probe info);
        if first && static then finishers := attach checks engine :: !finishers
      in
      (match workload ~on_engine with
      | r -> result := Some r
      | exception exn ->
          result := None;
          crashed := true;
          add [ crash_finding exn ]);
      List.iter (fun finish -> add (finish ())) (List.rev !finishers)
    end
  in
  let replay =
    if List.mem Determinism checks then begin
      let replay = Determinism.check ~run:execute () in
      if !crashed then None
      else begin
        add (Determinism.to_findings replay);
        Some replay
      end
    end
    else begin
      execute ~probe:ignore;
      None
    end
  in
  {
    checks;
    findings = Finding.sort !findings;
    replay;
    events = !events;
    runs = !runs;
    result = !result;
  }

let pp_replay ppf (d : Determinism.result) =
  Format.fprintf ppf "replay: %d vs %d events, hash %08x vs %08x — %s"
    d.events_first d.events_second d.hash_first d.hash_second
    (if Determinism.deterministic d then "identical" else "DIVERGENT")

let pp_outcome ~scenario ~seed ppf o =
  Format.fprintf ppf
    "analyze %s seed=%d checks=%s: %d finding(s), %d events, %d run(s)"
    (Scenarios.to_string scenario)
    seed
    (String.concat "," (List.map check_name o.checks))
    (List.length o.findings) o.events o.runs;
  List.iter (fun f -> Format.fprintf ppf "@.  %a" Finding.pp f) o.findings;
  if o.findings = [] then Format.fprintf ppf "@.  no findings: all checks clean"
