#!/usr/bin/env python3
"""Study benchmark: builds studybench/main.exe from source and runs it.

Run from the root of a source checkout:

  python3 studybench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One run.  Prints the program's JSON lines; the last line holds the
      keys correct, attempted, failed and metrics.  Exit 0 only when
      every output check passed.

  python3 studybench/run.py --steady [--runs 10] [--seconds S] [--trace 0|1]
                            [--workload NAME ...]
      Steadiness mode: repeats each workload at seeds 1..runs, reports
      each metric's median and quartiles, and flags every end-to-end
      metric whose spread (IQR / median) exceeds its bound in
      BENCHMARK.json as unresolved.

  python3 studybench/run.py --self-test
      The benchmark's own check at the smallest size: every declared
      metric is emitted with its unit on every workload, the simulated
      counts repeat exactly across two traced runs, a perturbed pin
      makes the gate fail, and a directory without the sources fails
      cleanly.

The build goes to .bench_build/ and run artefacts (spans, journals) to
.studybench/, both inside the checkout.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
OUT_DIR = ".studybench"
EXE = os.path.join(BUILD_DIR, "default", "studybench", "main.exe")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850

# Simulated counts that repeat exactly for a given seed.
DETERMINISTIC = [
    "sim.events",
    "kernel.lock_acquisitions",
    "kernel.lock_contended",
    "kernel.lock_wait_ns",
    "kernel.busy_fraction",
    "varbench.invocations",
    "varbench.retries",
    "varbench.abandoned",
    "fault.injections",
    "tailbench.requests",
    "env.deploys",
    "recov.journal_records",
]


def die(msg, code=2):
    print("studybench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def check_sources():
    """The benchmark builds the simulator from the checkout it runs in."""
    for path in ("dune-project", "lib", os.path.join("studybench", "dune")):
        if not os.path.exists(path):
            die("%s not found: run from the root of a ksurf source checkout" % path)


def build():
    check_sources()
    if shutil.which("dune") is None:
        die("dune not found on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--display", "quiet", "./studybench/main.exe"]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        die("build failed")


def source_identity():
    """Git commit when the checkout is a repository, and always a digest
    of the simulator and benchmark sources (a plain checkout has no
    commit)."""
    commit = "unknown"
    if os.path.isdir(".git") and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    h = hashlib.sha256()
    for top in ("lib", "bin", "studybench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "%s source-sha256:%s" % (commit, h.hexdigest()[:16])


def run_once(workload, seed, seconds, trace, extra=(), echo=True):
    """One run of the built program.  Returns (exit code, lines, result)
    where result is the parsed last line, or None."""
    os.makedirs(OUT_DIR, exist_ok=True)
    env = dict(os.environ, STUDYBENCH_COMMIT=source_identity())
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", OUT_DIR]
    cmd += list(extra)
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("studybench: run timed out", file=sys.stderr)
        return 1, [], None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines:
            print(line)
        sys.stdout.flush()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        print("studybench: last output line is not a result object",
              file=sys.stderr)
        return (proc.returncode or 1), lines, None
    return proc.returncode, lines, result


# ----------------------------------------------------------------------
# Steadiness mode


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, ((q3 - q1) / med if med else float("inf"))


def steady(args, spec):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    report = {}
    unresolved = []
    ok = True
    for w in workloads:
        values = {}
        for seed in range(1, args.runs + 1):
            code, _, result = run_once(w, seed, seconds, args.trace, echo=False)
            if code != 0 or result is None or not result["correct"]:
                print("%s seed %d: run failed (exit %d)" % (w, seed, code))
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        report[w] = {}
        for name, vs in sorted(values.items()):
            med, q1, q3, sp = spread(vs)
            entry = {"median": med, "q1": q1, "q3": q3, "spread": sp, "n": len(vs),
                     "values": vs}
            bound = bounds.get(name, {}).get("bound")
            if bound is not None:
                entry["bound"] = bound
                if sp > bound:
                    entry["unresolved"] = True
                    unresolved.append("%s/%s" % (w, name))
            report[w][name] = entry
            print("%-18s %-32s median %-14.6g q1 %-14.6g q3 %-14.6g spread %.4f%s%s" % (
                w, name, med, q1, q3, sp,
                "" if bound is None else "  bound %.3g" % bound,
                "  UNRESOLVED" if entry.get("unresolved") else ""))
            sys.stdout.flush()
    print(json.dumps({"steady": report, "unresolved": unresolved}))
    return 0 if ok and not unresolved else 1


# ----------------------------------------------------------------------
# Self-test


def self_test(spec):
    failures = []

    def expect(cond, msg):
        print(("ok    " if cond else "FAIL  ") + msg)
        sys.stdout.flush()
        if not cond:
            failures.append(msg)

    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    declared = {w["name"] for w in spec["workloads"]}
    for m in spec["per_layer"]:
        moves = layers.get(m["name"])
        expect(moves is not None and moves.get("moves")
               and set(moves.get("workloads", [])) <= declared,
               "layers.json says which end-to-end metric %s moves" % m["name"])
    for w in spec["workloads"]:
        traced = []
        for trace, key in ((0, "end_to_end"), (1, "per_layer"), (1, None)):
            code, _, result = run_once(w["name"], 42, 0, trace, echo=False)
            expect(code == 0 and result is not None and result["correct"]
                   and result["failed"] == 0 and result["attempted"] >= 1,
                   "%s --trace %d passes its output checks" % (w["name"], trace))
            got = result["metrics"] if result else {}
            if trace == 1:
                traced.append(got)
            if key is None:
                continue
            for m in spec[key]:
                g = got.get(m["name"])
                expect(g is not None and g.get("unit") == m["unit"]
                       and isinstance(g.get("value"), (int, float)),
                       "%s --trace %d emits %s in %s" % (
                           w["name"], trace, m["name"], m["unit"]))
            expect(set(got) == {m["name"] for m in spec[key]},
                   "%s --trace %d emits no undeclared metric" % (w["name"], trace))
        a, b = traced
        for name in DETERMINISTIC:
            expect(name in a and name in b and a[name]["value"] == b[name]["value"],
                   "%s: %s repeats exactly across two traced runs (%s)" % (
                       w["name"], name, a.get(name, {}).get("value")))
    cheapest = spec["workloads"][0]["name"]
    code, _, result = run_once(cheapest, 42, 0, 0, ["--perturb-pin"], echo=False)
    expect(code != 0 and result is not None and not result["correct"]
           and result["failed"] > 0,
           "a perturbed pinned digest fails the gate on %s" % cheapest)
    # Without the simulator's sources the benchmark must refuse to run.
    bare = os.path.abspath(os.path.join(OUT_DIR, "bare"))
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(HERE, "..", "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "studybench"))
    proc = subprocess.run(
        [sys.executable, "studybench/run.py", "--workload", cheapest, "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and proc.stdout.strip() == "",
           "a directory without the sources exits %d with no result" % proc.returncode)
    print("self-test: %d failure(s)" % len(failures))
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    check_sources()
    spec = load_spec()
    if args.self_test:
        build()
        return self_test(spec)
    if args.steady:
        build()
        return steady(args, spec)
    if not args.workload or len(args.workload) != 1 or args.seed is None \
            or args.seconds is None:
        p.error("--workload, --seed and --seconds are required for one run")
    build()
    code, _, result = run_once(args.workload[0], args.seed, args.seconds, args.trace)
    if result is None:
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
