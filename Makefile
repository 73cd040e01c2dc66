# Convenience targets; everything is plain dune underneath.

.PHONY: all build test lint lint-baseline experiments bench examples clean outputs

all: build

build:
	dune build @all

test:
	dune runtest

# Static analysis (stablint): fails on any finding not in the committed
# lint-baseline.json (or on stale baseline entries).  Writes the
# machine-readable report and the lint-domains shared-state inventory
# next to it.
lint:
	dune exec bin/lint.exe -- run --json lint-report.json --domains-json lint-domains.json

# Re-absorb the current findings into the baseline.  Use sparingly and
# only with a justification per entry.
lint-baseline:
	dune exec bin/lint.exe -- run --update-baseline

experiments:
	dune exec bin/experiments.exe -- run all

# The repo benchmark (perfbench/, named by BENCHMARK.json), written as
# the next committed trajectory file: five untraced 20 s runs of every
# workload (the end-to-end rows, seeds 1..5) and one traced seed-1 run
# (the exact per-layer rows that CI compares), merged into one
# perfbench/results/v1 file with a note on the host.  About 8 minutes.
bench:
	mkdir -p perfbench/results
	sh perfbench/run.sh --runs 5 --seconds 20 --trace 0 --json perfbench/results/untraced.json
	sh perfbench/run.sh --seed 1 --seconds 2 --trace 1 --json perfbench/results/traced.json
	jq -s --argjson cores "$$(nproc)" \
	  '{schema: .[0].schema, host: {cores: $$cores, note: "a shared \($$cores)-vCPU VM; every run uses one core"}, runs: (.[0].runs + .[1].runs)}' \
	  perfbench/results/untraced.json perfbench/results/traced.json > BENCH_7.json

examples:
	dune exec examples/quickstart.exe
	dune exec examples/config_store.exe
	dune exec examples/scoreboard.exe
	dune exec examples/recovery_demo.exe
	dune exec examples/kv_demo.exe

# The final artifacts recorded in the repository.
outputs:
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt
	sh perfbench/run.sh --seed 1 --seconds 2 --trace 1 2>&1 | tee bench_output.txt
	dune exec bin/experiments.exe -- run all 2>&1 | tee experiments_output.txt

clean:
	dune clean
