# Convenience targets; everything real lives in dune.

.PHONY: all build test bench-smoke bench-par-smoke bench-json perf perf-exec perf-exec-smoke perf-chain perf-adapt perf-serve perf-cfi perf-check perf-check-smoke check clean

all: build

build:
	dune build @all

test:
	dune runtest

# a fast end-to-end pass: full build, test suite, and one benchmark
# harness run at smoke size with machine-readable output
bench-smoke:
	dune exec bench/main.exe -- --size test --only T1,F2 --no-bechamel \
	  --json _build/bench-smoke

# the same smoke through the worker pool: exercises domain spawning,
# the single-flight memo under contention, and the jobs-independence
# of the emitted tables
bench-par-smoke:
	dune exec bench/main.exe -- --size test --only F2 --jobs 4 --no-bechamel

# record the full-grid benchmark as machine-readable BENCH_*.json
# (per-experiment wall-clock seconds, jobs, cells, simulated vs cached);
# committed baselines live in bench/baselines/
bench-json:
	dune exec bench/main.exe -- --size test --no-bechamel \
	  --json bench/baselines

# time the full grid serial vs parallel vs warm-cache and print the
# ratios (see `--perf` in bench/main.ml)
perf:
	dune exec bench/main.exe -- --size test --no-bechamel --perf --jobs 0

# time the full grid once per interpreter loop (per-step, block
# without chaining, chained blocks) and print every pairwise wall-clock
# ratio plus the chained speedup over the committed bench/baselines/
# seconds (all passes cold, serial)
perf-exec:
	dune exec bench/main.exe -- --size test --no-bechamel \
	  --perf-exec step,block-nochain,block

# just the chained pass and its ratio against the committed baselines
perf-chain:
	dune exec bench/main.exe -- --size test --no-bechamel --perf-exec block

# dry-run form of the exec matrix (one small experiment) so `check`
# exercises the mode plumbing without the full grid cost
perf-exec-smoke:
	dune exec bench/main.exe -- --size test --only T1 --no-bechamel \
	  --perf-exec step,block-nochain,block

# the adaptive-selection experiment: the regression gate on F10 (run
# behind F8/F9 so the in-run memo mirrors the full-grid baseline
# conditions — the three share the static-mechanism cells) plus the
# F10 perf report, whose counter block includes the adaptive
# promotion/demotion/re-patch totals
perf-adapt:
	dune exec bench/main.exe -- --size test --only F8,F9,F10 --check-perf \
	  --exec-mode $(PERF_MODE) --perf-tolerance $(PERF_TOLERANCE) \
	  --trajectory _build/trajectory-adapt.jsonl
	dune exec bench/main.exe -- --size test --only F10 --no-bechamel --perf

# the multi-tenant serving experiment: the regression gate on F11
# plus the F11 perf report, whose counter block includes the
# serve_* jobs/dedup/eviction/flush totals and the service jobs'
# block-cache counters
perf-serve:
	dune exec bench/main.exe -- --size test --only F11 --check-perf \
	  --exec-mode $(PERF_MODE) --perf-tolerance $(PERF_TOLERANCE) \
	  --trajectory _build/trajectory-serve.jsonl
	dune exec bench/main.exe -- --size test --only F11 --no-bechamel --perf

# the F12 CFI gate: protection-overhead grid against the committed
# baseline, then the F12 perf report, whose counter block includes the
# cfi_* totals for eyeballing
perf-cfi:
	dune exec bench/main.exe -- --size test --only F12 --check-perf \
	  --exec-mode $(PERF_MODE) --perf-tolerance $(PERF_TOLERANCE) \
	  --trajectory _build/trajectory-cfi.jsonl
	dune exec bench/main.exe -- --size test --only F12 --no-bechamel --perf

# the statistical regression gate: re-time the full grid (cold,
# serial, best-of-N) against bench/baselines, append one row to
# bench/trajectory.jsonl, exit non-zero on regression. PERF_MODE
# selects the interpreter; PERF_TOLERANCE the relative threshold
# (CI shares hardware, so its caller passes a generous one).
PERF_MODE ?= block
PERF_TOLERANCE ?= 1.5
perf-check:
	dune exec bench/main.exe -- --size test --check-perf \
	  --exec-mode $(PERF_MODE) --perf-tolerance $(PERF_TOLERANCE)

# the gate on two small experiments only — for CI smoke and `check`
perf-check-smoke:
	dune exec bench/main.exe -- --size test --only T1,F2 --check-perf \
	  --exec-mode $(PERF_MODE) --perf-tolerance $(PERF_TOLERANCE) \
	  --trajectory _build/trajectory-smoke.jsonl

check: build test bench-smoke bench-par-smoke perf-exec-smoke perf-check-smoke

clean:
	dune clean
