#!/usr/bin/env bash
# Runs one workload untraced with several seeds plus one traced run, and
# prints each metric's median and quartile spread over the runs, and the
# tracing overhead. Run from the repository root:
#
#   bash perfbench/steady.sh WORKLOAD [RUNS [SECONDS [FIRST_SEED]]]
#
# An end-to-end metric is steady when its spread is well inside its
# bound in BENCHMARK.json.
set -euo pipefail
w=${1:?usage: steady.sh WORKLOAD [RUNS [SECONDS [FIRST_SEED]]]}
runs=${2:-10}
secs=${3:-35}
first=${4:-1}
mkdir -p .bench_build
log=.bench_build/steady-$w.ndjson
: > "$log"
for ((s = first; s < first + runs; s++)); do
	bash perfbench/run.sh --workload "$w" --seed "$s" --seconds "$secs" --trace 0 | tail -n 1 >> "$log"
done
bash perfbench/run.sh --workload "$w" --seed "$first" --seconds "$secs" --trace 1 | tail -n 1 >> "$log"
.bench_build/perfbench --summarize < "$log"
