#!/bin/sh
# Run every workload once, untraced then traced:  sh perfbench/run_all.sh [SEED] [SECONDS]
set -e
for workload in fit-gaussian fit-poisson interpret; do
    for trace in 0 1; do
        python3 perfbench/run.py --workload "$workload" --seed "${1:-1}" \
            --seconds "${2:-20}" --trace "$trace"
    done
done
