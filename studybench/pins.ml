(* Stable_hash digests of each workload's rendered output at [seed],
   computed from the study entry points ([main.exe --print-pins]).  A
   digest changes only when the science does; say which change in
   CHANGES.md when updating one. *)

let seed = 42

let digests =
  [
    ("tail-contended", 0x08b19941b65894ac);
    ("tail-isolated", 0x076e87fd80282325);
    ("varbench-paper", 0x3d9587c779b4ce29);
    ("dose-journal-par", 0x39999235c4fea6ff);
  ]
