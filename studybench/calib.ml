(* A fixed reference loop that measures how fast the host runs now.

   The benchmark's hosts share their cores with other machines, and
   their speed drifts by tens of percent over seconds to minutes: on
   one 2-core Xeon VM, a tail-isolated pass of identical simulated work
   took from 0.36 s to 1.05 s over an afternoon.  The loop is timed next
   to every timed stretch, and the stretch's seconds are scaled by
   [reference_s] / (the loop's seconds), so that a drift which slows
   both cancels out while a change to the simulator moves only the
   stretch.

   The loop is part of the benchmark, not of the simulator: it does
   what the simulator spends its time on, in a fixed amount.  It
   allocates small records and lists and looks them up in a hashtable.
   The slow phases of the host hit memory traffic harder than
   arithmetic, and allocation through the simulator's large minor heap
   feels them as the simulator does.  Over two phases of that VM whose
   raw pass times differed by 1.8x, the pass's ratio to this loop
   stayed within 19-22.  Allocation-free loops tracked worse: a
   dependent-load chain in the L2 cache moved by 15-40% between the
   phases, and a branchy integer loop moved by 24% between two builds
   of the same benchmark.  The loop runs under the program's GC
   settings, so a change to the minor-heap size moves it a little too.
   It keeps at most 256 records live, so that it leaves the major heap
   almost no work to charge to the next stretch. *)

type item = { slot : int; value : int }

let steps = 300_000

(* The loop's result, kept so that the compiler cannot drop the work. *)
let sink = ref 0

let loop () =
  let table = Hashtbl.create 256 in
  let acc = ref 0 in
  for i = 1 to steps do
    let item = { slot = (i * 7) land 255; value = i } in
    (match Hashtbl.find_opt table item.slot with
    | Some old ->
        acc := !acc + old.value;
        Hashtbl.replace table item.slot item
    | None -> Hashtbl.add table item.slot item);
    acc := List.fold_left (fun a x -> (a lxor x) land max_int) !acc [ item.slot; item.value; !acc ]
  done;
  sink := !sink lxor !acc

(* Host seconds the loop takes now. *)
let time () =
  let t0 = Ksurf.Clock.now_s () in
  loop ();
  Ksurf.Clock.elapsed_s ~since:t0

(* About the loop's seconds on a quiet 2-core Xeon VM: a scaled time is
   the time the stretch would take there. *)
let reference_s = 0.020

(* [seconds] of a stretch, timed while the loop took [loop] seconds,
   at the reference speed. *)
let scale ~loop seconds = seconds *. reference_s /. loop
