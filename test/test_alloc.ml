(* Allocation budgets for the simulated-syscall hot path, in minor-heap
   words per operation (DESIGN §6.2).  [Gc.minor_words] counts every
   word this domain allocates, so in native code the deltas are exact
   and repeatable: a change that boxes a float, an int64 or a closure
   per call moves them at once, long before a wall-clock bench would
   notice. *)
open Ksurf

let iterations = 10_000

(* Minor words per call of [f].  The two counter reads and the loop cost
   a few words in total, which the division makes negligible. *)
let words_per_call f =
  let before = Gc.minor_words () in
  for _ = 1 to iterations do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int iterations

let within name ~budget words =
  if words > budget +. 0.01 then
    Alcotest.failf "%s: %.2f minor words per call, budget %.0f" name words
      budget

let test_prng () =
  let rng = Prng.create 42 in
  within "Prng.chance" ~budget:0.0
    (words_per_call (fun () -> ignore (Prng.chance rng 0.5)));
  within "Prng.int" ~budget:0.0
    (words_per_call (fun () -> ignore (Prng.int rng 1000)))

let test_welford () =
  let w = Welford.create () in
  within "Welford.add" ~budget:0.0 (words_per_call (fun () -> Welford.add w 1.5))

let test_lock () =
  let engine = Engine.create () in
  let lock = Lock.create ~engine ~name:"k0.inode[3]" in
  let words = ref nan in
  Engine.spawn engine (fun () ->
      words :=
        words_per_call (fun () ->
            Lock.acquire lock;
            Lock.release lock));
  Engine.run engine;
  Alcotest.(check int) "every acquisition ran" iterations
    (Lock.acquisitions lock);
  within "uncontended Lock.acquire + release" ~budget:4.0 !words

let test_delay () =
  let engine = Engine.create () in
  Engine.spawn engine (fun () ->
      for _ = 1 to iterations do
        Engine.delay 1.0
      done);
  let before = Gc.minor_words () in
  Engine.run engine;
  let words = Gc.minor_words () -. before in
  let events = Engine.events_executed engine in
  Alcotest.(check int) "one event per delay, plus the spawn" (iterations + 1)
    events;
  within "Engine.delay" ~budget:8.0 (words /. float_of_int events)

let suite =
  [
    Alcotest.test_case "prng draws allocate nothing" `Quick test_prng;
    Alcotest.test_case "welford add allocates nothing" `Quick test_welford;
    Alcotest.test_case "lock acquire+release within 4 words" `Quick test_lock;
    Alcotest.test_case "bare delay within 8 words/event" `Quick test_delay;
  ]
