#!/bin/bash
# Regenerates every figure/table of EXPERIMENTS.md into results/.
#
#   ./run_experiments.sh                  # full scale (paper-quality counts)
#   ./run_experiments.sh --quick          # ~10x fewer trials, minutes not hours
#   ./run_experiments.sh --thorough       # 3x the full-scale counts
#   ./run_experiments.sh --quick --threads 4   # pin the sweep worker count
#
# Each binary writes its stdout table to results/<bin>.txt and a
# structured JSON series to results/<bin>.json (schema in EXPERIMENTS.md).
# Per-figure wall-clock goes to results/BENCH_sweeps.json.
set -u
cd "$(dirname "$0")"
BINS="fig_sync_metric fig_sync_timing fig_sync_cfo fig_chanest fig_snr_est fig_ber_siso fig_ber_mimo fig_per fig_throughput table_mcs table_fec_gain fig_ablation_pilots fig_ablation_finetiming fig_ablation_soft fig_stbc_vs_sm fig_doppler fig_chaos fig_capacity fig_resilience fig_obs fig_profile bench_io loadgen"
mkdir -p results
cargo build -q --release -p mimonet-bench

SWEEPS="results/BENCH_sweeps.json"
{
  echo "{"
  echo "  \"args\": \"$*\","
  echo "  \"figures\": {"
} > "$SWEEPS"
first=1
total_start=$(date +%s.%N)
for b in $BINS; do
  echo "=== $b ==="
  start=$(date +%s.%N)
  cargo run -q --release -p mimonet-bench --bin "$b" -- "$@" > "results/$b.txt" 2>&1
  status=$?
  end=$(date +%s.%N)
  wall=$(echo "$end $start" | awk '{printf "%.3f", $1 - $2}')
  [ $first -eq 0 ] && echo "," >> "$SWEEPS"
  first=0
  printf '    "%s": {"wall_s": %s, "status": %d}' "$b" "$wall" "$status" >> "$SWEEPS"
done
total_end=$(date +%s.%N)

# Multi-core speedup probe: one figure, 1 worker vs one-per-core.
echo "=== speedup probe (fig_per) ==="
NPROC=$(nproc)
s1_start=$(date +%s.%N)
cargo run -q --release -p mimonet-bench --bin fig_per -- "$@" --threads 1 > /dev/null 2>&1
s1_end=$(date +%s.%N)
sn_start=$(date +%s.%N)
cargo run -q --release -p mimonet-bench --bin fig_per -- "$@" --threads "$NPROC" > /dev/null 2>&1
sn_end=$(date +%s.%N)
wall1=$(echo "$s1_end $s1_start" | awk '{printf "%.3f", $1 - $2}')
walln=$(echo "$sn_end $sn_start" | awk '{printf "%.3f", $1 - $2}')
speedup=$(echo "$wall1 $walln" | awk '{printf "%.2f", $1 / ($2 > 0 ? $2 : 1)}')
echo "fig_per: ${wall1}s @ 1 thread, ${walln}s @ $NPROC threads (${speedup}x)"

{
  echo ""
  echo "  },"
  echo "  \"speedup\": {\"figure\": \"fig_per\", \"host_cpus\": $NPROC, \"threads\": $NPROC,"
  echo "              \"wall_s_1_thread\": $wall1, \"wall_s_n_threads\": $walln,"
  echo "              \"speedup\": $speedup},"
  echo "$total_end $total_start" | awk '{printf "  \"total_wall_s\": %.3f\n", $1 - $2}'
  echo "}"
} >> "$SWEEPS"
echo "done (timings in $SWEEPS)"
