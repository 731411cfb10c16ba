#!/usr/bin/env bash
# Runs the gated perf suite at pinned small sizes (2 threads) and writes
# BENCH_*.json reports into OUT_DIR. The CI perf job and baseline refreshes
# (bench/baselines/) both go through this script so the pinned knobs cannot
# drift apart. Usage: run_perf_suite.sh BUILD_DIR OUT_DIR
set -euo pipefail
build=${1:?usage: run_perf_suite.sh BUILD_DIR OUT_DIR}
out=${2:?usage: run_perf_suite.sh BUILD_DIR OUT_DIR}
mkdir -p "$out"

# Repetition count is deliberately generous: the per-case median with IQR
# outlier rejection only stabilises on shared machines around 7+ samples.
common=(--threads=2 --seed=42 --repetitions=7 --warmup=1)

# fig08 needs n=64: at n<=32 the solves finish in well under a millisecond
# and the medians jitter past any sane gate; n=64 with extra repetitions
# holds run-to-run ratios inside the noise floor.
"$build/bench/fig08_molq_three_types" "${common[@]}" --sizes=64 \
    --json="$out/BENCH_fig08_molq_three_types.json"
"$build/bench/fig10_cost_bound" "${common[@]}" --problems=200 \
    --epsilons=1e-2,1e-3 --json="$out/BENCH_fig10_cost_bound.json"
# Combination pruning (DESIGN.md §5): SolveMolq vs the unpruned stages at
# 3-4 types. cost, final_ovrs, pruned_objects and pruned_pairs gate
# exactly; the bench itself checks that both arms return the same answer
# bit for bit.
"$build/bench/ext02_overlap_pruning" "${common[@]}" --sizes=256 \
    --json="$out/BENCH_ext02_overlap_pruning.json"
# Road-network MOLQ (src/network): network_cost and snapped_euclidean_cost
# gate exactly. The timed body is the network solve alone. At 16K-32K
# vertices its medians run 5-30 ms, where the default 500-8000 sizes take
# 0.1-5 ms. The memory-bound Dijkstra still swings by up to 1.3x between
# runs on a shared host, so the cases take 15 repetitions: with 7, their
# stddev missed the swing and runs of one binary failed the timing gate.
"$build/bench/ext04_network_molq" "${common[@]}" --repetitions=15 \
    --vertices=16000,32000 --json="$out/BENCH_ext04_network_molq.json"
"$build/bench/micro_fermat" "${common[@]}" \
    --json="$out/BENCH_micro_fermat.json"
"$build/bench/micro_geom" "${common[@]}" \
    --json="$out/BENCH_micro_geom.json"
"$build/bench/micro_spatial" "${common[@]}" --scale=16 \
    --json="$out/BENCH_micro_spatial.json"

# Query-algebra gates (DESIGN.md §13): the four shape evaluators against a
# shared prebuilt overlay, plus the overlay build itself as its own case.
# The deterministic metrics (skyline size, dominance tests, boundary
# solves, sweep answers) gate exactly and survive hardware changes.
"$build/bench/query_shapes" "${common[@]}" --sizes=16,32 --vectors=8 \
    --json="$out/BENCH_query.json"

# Weighted-diagram construction gates (DESIGN.md §11): the micro suite
# compares the adaptive builder against the dense-grid audit oracle
# directly; the fig11-14 runs pin small overlap workloads plus the weighted
# build phase end-to-end through BuildBasicMovd. Sizes keep the dense
# oracle cases around a second while leaving the adaptive speedup well
# above the measurement noise.
"$build/bench/micro_weighted" "${common[@]}" --sizes=64,256 --resolution=256 \
    --json="$out/BENCH_micro_weighted.json"
"$build/bench/fig11_overlap_time" "${common[@]}" --sizes=128 --wres=512 \
    --json="$out/BENCH_fig11_overlap_time.json"
"$build/bench/fig12_ovr_count" "${common[@]}" --sizes=128 --wres=512 \
    --json="$out/BENCH_fig12_ovr_count.json"
"$build/bench/fig13_overlap_memory" "${common[@]}" --sizes=128 --wres=512 \
    --json="$out/BENCH_fig13_overlap_memory.json"
"$build/bench/fig14_multi_overlap" "${common[@]}" --budget_mb=2 --max_n=512 \
    --types=2,3 --wres=512 --wbuild_n=128 \
    --json="$out/BENCH_fig14_multi_overlap.json"

# Live-update maintenance gates (DESIGN.md §14): incremental basic/overlay
# patching vs from-scratch rebuilds over a pinned mutation script. The
# recomputed/retained counters gate exactly; the rebuild_over_patch
# derived ratios document the incremental speedup the serve engine relies
# on.
"$build/bench/update_patch" "${common[@]}" --sizes=200,800 --updates=32 \
    --json="$out/BENCH_update.json"
