#!/usr/bin/env bash
# Builds the benchmark and the delorean-serve daemon from this checkout,
# then runs one workload:
#
#   bash perfbench/run.sh --workload record-save --seed 1 --seconds 20 --trace 0
#
# or every workload in turn with --workload all. Run from the repository
# root. Build outputs, the Go build cache, daemon stores and span files
# stay under .bench_build/ in the checkout. Compilation happens here,
# before the benchmark process starts, so it is not part of setup_s.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$out/config"
mkdir -p "$out/bin"
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/delorean-serve" delorean/cmd/delorean-serve)

if [[ "${1:-}" == "--workload" && "${2:-}" == "all" ]]; then
  shift 2
  for w in record-save serve-mixed figures; do
    "$out/bin/perfbench" -workload "$w" -serve-bin "$out/bin/delorean-serve" -out "$out" "$@"
  done
  exit 0
fi
exec "$out/bin/perfbench" -serve-bin "$out/bin/delorean-serve" -out "$out" "$@"
