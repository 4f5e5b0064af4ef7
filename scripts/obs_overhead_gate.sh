#!/usr/bin/env bash
# Observability overhead gate: the instrumented build (NETD_OBS=ON, the
# default) must not be more than ND_GATE_LIMIT_PCT (default 5) percent
# slower than the compiled-out build (NETD_OBS=OFF) on the service bench
# and a solver-heavy figure bench.
#
# Builds two Release trees, runs each bench ND_GATE_RUNS (default 3)
# times per tree, alternating between the trees run by run, and compares
# the *minimum* wall_ms per bench record — min is the stable estimator on
# noisy CI boxes. Benches run with the
# full observability path armed: ND_BENCH_TRACE=1 makes bench_svc install
# the span sink and drive the event ring (slow-request threshold 1 ms),
# so the gate prices distributed tracing on the hot path, not just
# dormant counters. The OFF tree compiles all of it out, making the
# comparison the true cost of shipping the instrumentation enabled.
#
# Usage: obs_overhead_gate.sh [source-dir] [workdir]
set -eu

SRC=${1:-.}
WORK=${2:-obs_gate_work}
RUNS=${ND_GATE_RUNS:-3}
LIMIT=${ND_GATE_LIMIT_PCT:-5}
GEN=${ND_GATE_GENERATOR:-Ninja}
BENCHES="bench_svc bench_fig6_tomo"

mkdir -p "$WORK"

build_tree() { # <dir> <ON|OFF>
  cmake -B "$1" -S "$SRC" -G "$GEN" -DCMAKE_BUILD_TYPE=Release \
        -DNETD_OBS="$2" >/dev/null
  # shellcheck disable=SC2086  # BENCHES is a deliberate word list
  cmake --build "$1" --target $BENCHES >/dev/null
}

# One run of every bench in one tree, appended to <perf.jsonl>.
run_benches_once() { # <dir> <perf.jsonl>
  for b in $BENCHES; do
    ND_PLACEMENTS=2 ND_TRIALS=8 ND_THREADS=2 ND_PERF_JSON="$2" \
      ND_BENCH_TRACE=1 "$1/bench/$b" >/dev/null
  done
}

echo "obs_overhead_gate: building NETD_OBS=ON tree"
build_tree "$WORK/on" ON
echo "obs_overhead_gate: building NETD_OBS=OFF tree"
build_tree "$WORK/off" OFF
echo "obs_overhead_gate: timing ($RUNS runs per tree, alternating)"
# ON and OFF runs alternate (ON, OFF, OFF, ON, ON, OFF, ...), so drift on
# the host over the timing phase lands on both trees alike instead of on
# whichever tree ran last.
rm -f "$WORK/on.jsonl" "$WORK/off.jsonl"
i=0
while [ "$i" -lt "$RUNS" ]; do
  if [ $((i % 2)) -eq 0 ]; then order="on off"; else order="off on"; fi
  for tree in $order; do
    run_benches_once "$WORK/$tree" "$WORK/$tree.jsonl"
  done
  i=$((i + 1))
done

awk -v limit="$LIMIT" -v on_file="$WORK/on.jsonl" '
  {
    if (match($0, /"bench":"[^"]*"/) == 0) next
    name = substr($0, RSTART + 9, RLENGTH - 10)
    if (match($0, /"wall_ms":[0-9.eE+-]+/) == 0) next
    wall = substr($0, RSTART + 10, RLENGTH - 10) + 0
    key = (FILENAME == on_file) ? "on" : "off"
    if (!((key, name) in best) || wall < best[key, name])
      best[key, name] = wall
    names[name] = 1
  }
  END {
    fail = 0
    compared = 0
    for (name in names) {
      if (!(("on", name) in best) || !(("off", name) in best)) {
        printf "obs_overhead_gate: %s missing from one tree\n", name
        fail = 1
        continue
      }
      on = best["on", name]; off = best["off", name]
      pct = off > 0 ? (on - off) / off * 100 : 0
      printf "obs_overhead_gate: %-28s on=%9.2fms off=%9.2fms  %+.2f%%\n", \
             name, on, off, pct
      compared++
      if (pct > limit) {
        printf "obs_overhead_gate: FAIL %s exceeds the %s%% budget\n", \
               name, limit
        fail = 1
      }
    }
    if (compared == 0) {
      print "obs_overhead_gate: FAIL no bench records compared"
      fail = 1
    }
    exit fail
  }
' "$WORK/on.jsonl" "$WORK/off.jsonl"

echo "obs_overhead_gate: PASS (budget ${LIMIT}%)"
