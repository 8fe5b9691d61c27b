#!/usr/bin/env bash
# Regenerate every evaluation artifact referenced by EXPERIMENTS.md.
# Usage: tools/run_experiments.sh [scale] [workers] [reps]
#   workers defaults to the machine's core count (capped at 8, the
#   largest Fig. 4 configuration we report).
set -euo pipefail
cd "$(dirname "$0")/.."

default_workers() {
  local n
  n="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
  if ((n > 8)); then n=8; fi
  echo "$n"
}

SCALE="${1:-medium}"
WORKERS="${2:-$(default_workers)}"
REPS="${3:-3}"

echo ">> building (release)"
cargo build --workspace --release

# Newest mtime (epoch seconds) in the source tree: any binary older than
# this is stale and must not produce committed artifacts.
newest_source_mtime() {
  find crates src vendor Cargo.toml Cargo.lock -name '*.rs' -o -name 'Cargo.toml' -o -name 'Cargo.lock' 2>/dev/null \
    | xargs stat -c '%Y' 2>/dev/null | sort -n | tail -1
}
SRC_MTIME="$(newest_source_mtime)"

run() {
  local bin="$1" out="$2"
  shift 2
  local exe="target/release/$bin"
  if [[ ! -x "$exe" ]]; then
    echo "error: $exe missing after build — did 'cargo build --workspace --release' skip sfrd-bench?" >&2
    exit 1
  fi
  local bin_mtime
  bin_mtime="$(stat -c '%Y' "$exe")"
  if ((bin_mtime < SRC_MTIME)); then
    echo "error: $exe is STALE (binary mtime $bin_mtime < newest source mtime $SRC_MTIME)." >&2
    echo "       The release build did not rebuild it — refusing to regenerate artifacts" >&2
    echo "       from an old binary. Run 'cargo build --workspace --release' and retry." >&2
    exit 1
  fi
  echo ">> $bin $* -> $out"
  "$exe" "$@" | tee "$out"
}

run fig3_characteristics results_fig3_"$SCALE".txt --scale "$SCALE"
run fig5_memory          results_fig5_"$SCALE".txt --scale "$SCALE"
run k_scaling            results_kscaling.txt
# fig4 last: it is timing-sensitive, keep the machine quiet.
run fig4_times           results_fig4_"$SCALE".txt --scale "$SCALE" --workers "$WORKERS" --reps "$REPS"

echo ">> done (scale=$SCALE workers=$WORKERS reps=$REPS); see results_*.txt"
