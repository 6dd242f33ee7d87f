#!/bin/sh
# Byte-identity gate for the fleet subsystem.
#
# Usage: ./scripts/fleet_identity_check.sh <fleetd-binary>
#   e.g. ./scripts/fleet_identity_check.sh build/tools/fleetd/fleetd
#
# Sharding identity (the src/fleet coordinator contract, see
# docs/CHECKPOINTS.md): the heterogeneous demo spec, smoke-scaled, is
# evaluated at shards 1, 2, and 8 in-process and at shards 4 as spawned
# `fleetd --worker` processes.  All four result JSONs must be
# byte-identical (they carry no timestamps or execution-mode fields by
# design).
set -e

bin=$1
if [ -z "$bin" ] || [ ! -x "$bin" ]; then
  echo "usage: $0 <fleetd-binary>" >&2
  exit 2
fi
cd "$(dirname "$0")/.."

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

spec=examples/fleet_demo.json
scale=50

echo "[fleet-identity] shards 1 (in-process, 1 thread)" >&2
"$bin" run --spec "$spec" --scale $scale --shards 1 --threads 1 \
  --out "$work/s1.json" >/dev/null
echo "[fleet-identity] shards 2 (in-process)" >&2
"$bin" run --spec "$spec" --scale $scale --shards 2 \
  --out "$work/s2.json" >/dev/null
echo "[fleet-identity] shards 8 (in-process)" >&2
"$bin" run --spec "$spec" --scale $scale --shards 8 \
  --out "$work/s8.json" >/dev/null
echo "[fleet-identity] shards 4 (worker processes)" >&2
"$bin" run --spec "$spec" --scale $scale --shards 4 --mode worker \
  --work-dir "$work/units" --out "$work/w4.json" >/dev/null

for f in s2 s8 w4; do
  if ! cmp -s "$work/s1.json" "$work/$f.json"; then
    echo "[fleet-identity] FAIL: $f.json differs from s1.json" >&2
    diff "$work/s1.json" "$work/$f.json" >&2 || true
    exit 1
  fi
done
echo "[fleet-identity] merged results byte-identical across shard plans: PASS" >&2
