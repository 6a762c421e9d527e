# Convenience entry points; everything below is plain dune.

.PHONY: all build test bench-json tenancy-bench engine-bench staticcheck lint check clean

all: build

build:
	dune build

test:
	dune runtest

# kpar throughput scan: the quick-scale dose sweep at jobs 1/2/4/8,
# cells/sec per worker count plus a stable hash of each rendered
# result, written to BENCH_kpar.json.  Exits nonzero if any job count
# produces output that differs from jobs=1 — the determinism gate —
# or if the scaling gate fails: on hosts with >= 4 cores jobs=4 must
# reach the 2x floor; on smaller hosts (where wall-clock speedup is
# physically capped at ~1x) the anti-scaling floor applies instead,
# catching any regression toward the 0.31x GC-rendezvous convoy.
bench-json:
	dune exec bench/main.exe -- sweep quick --gate-speedup 2.0

# ktenant memory-flatness bench: the same churny 64-tenant fleet at
# 10^5 and 10^6 requests, wall clock + peak RSS per run, written to
# BENCH_tenancy.json.  Exits nonzero if 10x the requests more than
# doubles the peak RSS — the streaming-statistics gate.
tenancy-bench:
	dune exec bench/main.exe -- tenancy full

# Simulator-core throughput: Bechamel microbenchmarks plus one mixed
# timer/lock workload timed end to end, events/sec and GC minor
# words/event written to BENCH_engine.json.  The allocation rate is the
# portable number; events/sec is machine context.
engine-bench:
	dune exec bench/main.exe -- micro

# Static analysis gate (kstat): certify the stock table cycle-free,
# print the interference matrix, and verify the fs workload's
# profile-derived allowlist (gaps / slack / pruned-machinery hazards).
# No simulation involved; exits nonzero on any finding.
staticcheck:
	dune exec bin/ksurf_cli.exe -- staticcheck
	dune exec bin/ksurf_cli.exe -- staticcheck --spec fs

# Source lint (klint): module-level mutable state in the
# domain-parallel layers, and raw open_out / Unix.openfile /
# Sys.rename durable writes that bypass Fileio.
lint:
	dune exec bin/klint.exe -- lib

# The one gate path: the tier-1 tests run every stock sanitizer
# scenario with its accounting checks at two seeds (`ksurf_cli analyze
# --scenario <name>` runs one by hand), plus lint and kstat.
check: build test lint staticcheck

clean:
	dune clean
