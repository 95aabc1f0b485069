#!/usr/bin/env bash
# Figure-stability gate: every virtual-time figure must be byte-identical
# across two back-to-back runs, with no masked cells. The simulator is
# deterministic end-to-end: remote IPI cycle charges travel through
# virtual-time-stamped per-core mailboxes (drained in stamp order at clock
# crossings), and figure workloads run under the deterministic schedule
# (hw.Sched: one loop stepping cores, procs as coroutines or step
# functions), which resolves virtually-concurrent operations in (virtual
# clock, core ID, arrival seq) order instead of whatever order the Go
# scheduler happens to pick. Any new real-time dependency — a
# map-iteration-order leak, an unstamped cycle charge, a raced lock fold —
# breaks this gate.
#
# The set of figures is the directory: every figures/<name>.txt names a
# radixbench experiment, and cmd/radixbench's test holds every experiment
# but table1 to having one. Each quick run, the 64-core scale smoke
# included, runs under a wall-clock budget (default 150 s, override with
# FIG_SMOKE_BUDGET) so a simulator-side real-time scaling regression fails
# this job instead of hanging it. The full committed-figure regenerations
# get twice that: the longest, the full spawn sweep (80 cores, concurrent
# forks), takes about 50 s of near-serial deterministic schedule on a
# 2-vCPU host (45-52 s over three runs), so 300 s leaves headroom on a
# loaded runner and still catches a real scaling regression.
#
# Usage: scripts/fig-stability.sh <scratch-dir>
set -euo pipefail

dir="${1:?usage: fig-stability.sh <scratch-dir>}"
budget="${FIG_SMOKE_BUDGET:-150}"
full_budget=$((budget * 2))

gen() {
  out="$1"
  mkdir -p "$out"
  for f in figures/*.txt; do
    fig=$(basename "$f" .txt)
    timeout "$budget" go run ./cmd/radixbench -exp "$fig" -quick >"$out/$fig.txt"
  done
}

gen "$dir/run1"
gen "$dir/run2"
diff -ru "$dir/run1" "$dir/run2"
echo "figure outputs are byte-identical across two runs"

# The committed full-resolution figures must also regenerate byte-for-byte:
#   - figures/scale.txt — the paper's central claim (radixvm's slope holds
#     to 64 cores while the broadcast baselines flatten),
#   - figures/clone.txt — the generation fork's headline,
#   - figures/spawn.txt — concurrent fork-vs-fork serialization,
#   - figures/fleet.txt — the scheduled multi-address-space machine: even
#     its latency percentiles and LRU-driven review pressure are pure
#     functions of virtual time. The figure most sensitive to scheduling
#     nondeterminism: its saturated 16-core cell moves between 57 and 69
#     K spawns/s on a 60-cycle difference in what a fork costs (PR 22),
#   - figures/filemap.txt — the shared page cache: per-page sharer-set
#     shootdowns, refcache review pressure, and the broadcast baselines'
#     IPI bill, all through the concurrent fleet scheduler,
#   - figures/fig4.txt — Metis, the paper's headline application result,
#     to 80 cores,
#   - figures/{fig5,fig6,fig7,fig8,fig9,mprotect,fork,table2}.txt — the rest
#     of the paper's own evaluation, about 25 s for all eight; harness's
#     TestPaperClaims reads the paper's shape claims off these files,
#   - figures/memory.txt — §5.4's page-table memory comparison, the one
#     known miss (53.1x at 80 cores against the paper's 13x).
for f in figures/*.txt; do
  fig=$(basename "$f" .txt)
  timeout "$full_budget" go run ./cmd/radixbench -exp "$fig" >"$dir/${fig}_full.txt"
  diff -u "$f" "$dir/${fig}_full.txt"
  echo "committed figures/${fig}.txt regenerates byte-identically"
done
