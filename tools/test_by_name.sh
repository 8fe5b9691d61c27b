#!/usr/bin/env bash
# Run tests by name, failing if a name selects no test.
#
#   tools/test_by_name.sh <cargo test args> -- <name>...
#
# is `cargo test <cargo test args> -- <name>...`, after checking, through
# `-- --list`, that each <name> matches at least one test of the selected
# targets. `cargo test` itself exits 0 when its filters select nothing, so
# a by-name step whose test was renamed or deleted would pass silently.
set -euo pipefail

args=()
while [[ $# -gt 0 && $1 != -- ]]; do
  args+=("$1")
  shift
done
if [[ $# -lt 2 ]]; then
  echo "usage: $0 <cargo test args> -- <name>..." >&2
  exit 2
fi
shift

for name in "$@"; do
  listed=$(cargo test "${args[@]}" -- --list "$name")
  if ! grep -q ': test$' <<<"$listed"; then
    echo "error: no test matches '$name' in cargo test ${args[*]}" >&2
    exit 1
  fi
done
cargo test "${args[@]}" -- "$@"
