open Ksurf

let check_float = Alcotest.(check (float 1e-9))

let test_determinism () =
  let a = Prng.create 123 and b = Prng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_seed_changes_stream () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let differs = ref false in
  for _ = 1 to 16 do
    if Prng.bits64 a <> Prng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_split_independent_of_position () =
  (* A child stream depends on the parent's seed and label only. *)
  let a = Prng.create 7 in
  let b = Prng.create 7 in
  ignore (Prng.bits64 b);
  ignore (Prng.bits64 b);
  let ca = Prng.split a "child" and cb = Prng.split b "child" in
  Alcotest.(check int64) "same child stream" (Prng.bits64 ca) (Prng.bits64 cb)

let test_split_labels_differ () =
  let p = Prng.create 7 in
  let a = Prng.split p "left" and b = Prng.split p "right" in
  Alcotest.(check bool) "labels give distinct streams" true
    (Prng.bits64 a <> Prng.bits64 b)

let test_copy () =
  let a = Prng.create 9 in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.bits64 a)
    (Prng.bits64 b)

let test_int_rejects_bad_bound () =
  let rng = Prng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0))

let test_uniform_in_range () =
  let rng = Prng.create 11 in
  for _ = 1 to 10_000 do
    let u = Prng.uniform rng in
    if u < 0.0 || u >= 1.0 then Alcotest.fail "uniform out of [0,1)"
  done

let test_uniform_mean () =
  let rng = Prng.create 13 in
  let acc = ref 0.0 in
  let n = 100_000 in
  for _ = 1 to n do
    acc := !acc +. Prng.uniform rng
  done;
  let mean = !acc /. float_of_int n in
  if Float.abs (mean -. 0.5) > 0.01 then
    Alcotest.failf "uniform mean %f too far from 0.5" mean

let test_chance_extremes () =
  let rng = Prng.create 17 in
  Alcotest.(check bool) "p=0 never" false (Prng.chance rng 0.0);
  Alcotest.(check bool) "p=1 always" true (Prng.chance rng 1.0);
  Alcotest.(check bool) "p<0 never" false (Prng.chance rng (-0.5));
  Alcotest.(check bool) "p>1 always" true (Prng.chance rng 1.5)

let test_pick_empty () =
  let rng = Prng.create 19 in
  Alcotest.check_raises "empty pick" (Invalid_argument "Prng.pick: empty array")
    (fun () -> ignore (Prng.pick rng [||]))

let test_seed_of () =
  let rng = Prng.create 37 in
  ignore (Prng.bits64 rng);
  Alcotest.(check int) "seed preserved" 37 (Prng.seed_of rng)

(* Known answers for the SplitMix64 stream, taken from the reference
   implementation.  Every pinned study digest rests on these exact bits,
   so a representation change must reproduce them. *)
let test_known_answers () =
  let expect_stream name rng expected =
    List.iteri
      (fun i want ->
        Alcotest.(check int64) (Printf.sprintf "%s draw %d" name i) want
          (Prng.bits64 rng))
      expected
  in
  expect_stream "create 42" (Prng.create 42)
    [
      0x989b3f130a063869L; 0x290db4bf2570ded7L; 0x2a990be63a01b2d5L;
      0x0c4b6b24ef01890eL; 0xfb16a06e52ec10a7L; 0x3c30fc5fd50692c3L;
      0x4782c4b4c4fdf7c9L; 0x272404a0a3926552L;
    ];
  expect_stream "split kernel-0" (Prng.split (Prng.create 42) "kernel-0")
    [
      0x64b164d732fe00b9L; 0xe38f76a37a4acce7L; 0x6c94d4c0f7204d68L;
      0x0b07afcbb1e74cd0L; 0x6651027248d50448L; 0x9cbbd98aea221a93L;
      0xd37e84ac2f090e07L; 0xf7d958a0910939b0L;
    ];
  let rng = Prng.create 42 in
  Alcotest.(check (float 0.0)) "uniform" 0x1.31367e26140c7p-1 (Prng.uniform rng);
  Alcotest.(check int) "int" 797 (Prng.int rng 1000);
  Alcotest.(check bool) "chance" true (Prng.chance rng 0.5);
  Alcotest.(check (pair int64 int)) "save" (0x820057545251ea61L, 42)
    (Prng.save rng)

let test_save_restore () =
  let rng = Prng.create 5 in
  for _ = 1 to 3 do ignore (Prng.bits64 rng) done;
  let state, seed = Prng.save rng in
  let resumed = Prng.restore ~state ~seed in
  Alcotest.(check int) "seed restored" 5 (Prng.seed_of resumed);
  for i = 1 to 8 do
    Alcotest.(check int64) (Printf.sprintf "draw %d" i) (Prng.bits64 rng)
      (Prng.bits64 resumed)
  done;
  (* The restored stream owns its state: advancing it leaves the
     original where it was. *)
  ignore (Prng.bits64 resumed);
  Alcotest.(check bool) "independent state" true
    (Prng.bits64 rng <> Prng.bits64 resumed)

let qcheck_int_in_bounds =
  QCheck.Test.make ~name:"prng int always in [0,n)" ~count:500
    QCheck.(pair small_int (int_bound 1000))
    (fun (seed, n) ->
      let n = n + 1 in
      let rng = Prng.create seed in
      let v = Prng.int rng n in
      v >= 0 && v < n)

let qcheck_shuffle_is_permutation =
  QCheck.Test.make ~name:"shuffle preserves multiset" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let rng = Prng.create seed in
      let a = Array.of_list l in
      Prng.shuffle rng a;
      List.sort compare (Array.to_list a) = List.sort compare l)

let qcheck_float_bound =
  QCheck.Test.make ~name:"prng float in [0,x)" ~count:300
    QCheck.(pair small_int pos_float)
    (fun (seed, x) ->
      QCheck.assume (Float.is_finite x && x > 0.0);
      let rng = Prng.create seed in
      let v = Prng.float rng x in
      v >= 0.0 && v <= x)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seeds differ" `Quick test_seed_changes_stream;
    Alcotest.test_case "split position-independent" `Quick
      test_split_independent_of_position;
    Alcotest.test_case "split labels differ" `Quick test_split_labels_differ;
    Alcotest.test_case "copy" `Quick test_copy;
    Alcotest.test_case "int bad bound" `Quick test_int_rejects_bad_bound;
    Alcotest.test_case "uniform range" `Quick test_uniform_in_range;
    Alcotest.test_case "uniform mean" `Quick test_uniform_mean;
    Alcotest.test_case "chance extremes" `Quick test_chance_extremes;
    Alcotest.test_case "pick empty" `Quick test_pick_empty;
    Alcotest.test_case "seed_of" `Quick test_seed_of;
    Alcotest.test_case "known answers" `Quick test_known_answers;
    Alcotest.test_case "save/restore round trip" `Quick test_save_restore;
    QCheck_alcotest.to_alcotest qcheck_int_in_bounds;
    QCheck_alcotest.to_alcotest qcheck_shuffle_is_permutation;
    QCheck_alcotest.to_alcotest qcheck_float_bound;
  ]

let () = ignore check_float
