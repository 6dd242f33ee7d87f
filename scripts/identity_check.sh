#!/bin/sh
# Byte-identity gates: every "this must not move a single output byte"
# contract of the repository, as one declarative matrix.
#
# Usage: ./scripts/identity_check.sh [build-dir] [group...]
#   build-dir  default build (uses bench/*, tools/tracetool, tools/fleetd/fleetd)
#   group      any of: ddr3 smoke golden fleet mc (default: all of them)
#
# Each MATRIX row is: group, variant, baseline, compared files, command.
# Every row runs its command in its own fresh directory under one mktemp
# root -- the binaries write bench_results/ and results/ relative to the
# cwd -- so the checkout is only ever read.  A row passes iff its command
# exits 0 and every compared file is present and non-empty and, when the
# row names a baseline directory, byte-equal (cmp) to the baseline's copy.
# A baseline is an earlier row of the same group (run once) or committed
# files of the checkout.  A failing row prints "FAIL group/variant" and
# its diff, and the remaining rows still run; the exit status is 1 if any
# row failed.  The table in docs/VERIFICATION.md ("Identity gates")
# documents each row.
#
# Columns are whitespace-separated; the command is the rest of the line.
# Baseline, files and command are eval'd: $R is the checkout, $W the
# scratch root (row directories are $W/group/variant), $variant the row's
# variant, $k the kernel of a kernel=* row.  Commands run under `set -a`,
# so VAR=value prefixes reach the binaries.  Files are comma-separated;
# "-" means none.
MATRIX='
ddr3   fresh      $R                  $FULL                   fig10
ddr3   ablations  $R                  $ABLATIONS              ablations
smoke  base       -                   $SMOKE,stdout,$MANIFEST fig10 --smoke
smoke  kernel=*   $W/smoke/base       $SMOKE,stdout           ECCSIM_KERNEL=$k fig10 --smoke
smoke  telemetry  $W/smoke/base       $SMOKE                  telemetry
smoke  replay     $W/smoke/base       $SMOKE,stdout           record_all && fig10 --smoke --trace-in traces
smoke  threads=1  $W/smoke/base       $SMOKE,stdout           RUNNER_THREADS=1 fig10 --smoke
smoke  checked    $W/smoke/base       $SMOKE,stdout           ECCSIM_CHECK=1 fig10 --smoke
golden validate   -                   -                       golden_validate
golden rerecord   $R/traces/golden    $GOLDEN                 golden_record
golden heartbeat  $R/traces/golden    $GOLDEN                 ECCSIM_STATUS=status.json ECCSIM_STATUS_INTERVAL_MS=0 golden_record
fleet  shards=1   -                   fleet.json              fleet --shards 1 --threads 1
fleet  shards=2   $W/fleet/shards=1   fleet.json              fleet --shards 2
fleet  shards=8   $W/fleet/shards=1   fleet.json              fleet --shards 8
mc     fig02_mtbf_channels            $W/mc/$variant/ref  stdout,bench_results/smoke/$variant.csv  kill_resume $variant
mc     fig08_eol_correction_fraction  $W/mc/$variant/ref  stdout,bench_results/smoke/$variant.csv  kill_resume $variant
'
FULL=bench_results/sweep_quad.csv,bench_results/fig10_epi_quad.csv
SMOKE=bench_results/sweep_quad_smoke.csv,bench_results/smoke/fig10_epi_quad.csv
MANIFEST=results/smoke/fig10_epi_quad.manifest.json
ABLATION_BENCHES="ablation_degraded ablation_rowpolicy ablation_ecc_cache ablation_powerdown ablation_scrub ablation_speedbin"
ABLATIONS=$(for b in $ABLATION_BENCHES; do printf 'bench_results/%s.csv,' "$b"; done)
ABLATIONS=${ABLATIONS%,}

all="ddr3 smoke golden fleet mc"
build=${1:-build}
[ $# -gt 0 ] && shift
groups=${*:-$all}
cd "$(dirname "$0")/.." || exit 2
R=$(pwd)
for g in $groups; do
  case " $all " in *" $g "*) ;; *)
    echo "usage: $0 [build-dir] [group...]  (unknown group '$g'; groups: $all)" >&2
    exit 2 ;;
  esac
done
[ -d "$build" ] || { echo "usage: $0 [build-dir] [group...]  ($build: no such build dir)" >&2; exit 2; }
build=$(cd "$build" && pwd)
B=$build/bench T=$build/tools/tracetool F=$build/tools/fleetd/fleetd
GOLDEN=$(cd traces/golden && ls *.ecctrace 2>/dev/null | paste -sd, -)

# Rows see only the environment they declare: drop inherited bench knobs.
for v in $(env | sed -nE 's/^((ECCSIM|STATS)_[A-Z0-9_]*)=.*/\1/p'); do unset "$v"; done
export RUNNER_THREADS=4

W=$(mktemp -d) || exit 2
trap 'rm -rf "$W"' EXIT
trap 'exit 2' INT TERM HUP
failed=0

# --- row commands (each runs inside its row directory) ---------------------
fig10() { "$B/fig10_epi_quad" "$@"; }

ablations() {  # the ablations that build SystemSims directly, under --stats
  for b in $ABLATION_BENCHES; do "$B/$b" --stats >/dev/null || return 1; done
}

telemetry() {  # every observation channel on, and each one materialized
  ECCSIM_STATUS_INTERVAL_MS=0 fig10 --smoke --stats --status status.json \
    --progress || return 1
  grep -q '"schema": "eccsim.heartbeat/1"' status.json &&
    grep -q '"final": true' status.json ||
    { echo "no final heartbeat snapshot in status.json" >&2; return 1; }
  grep -q '"status": "completed"' $MANIFEST ||
    { echo "manifest is not marked completed" >&2; return 1; }
  sed -n '/"profile": {/,$p' $MANIFEST | grep -q '"calls": [1-9]' ||
    { echo "manifest carries no scope profile" >&2; return 1; }
}

record_all() {  # every paper workload, deep enough for a smoke replay
  "$T" record --all --out traces --ops-per-core 60000 >/dev/null
}

golden_validate() {  # the committed traces parse, CRCs and sums hold
  (cd "$R/traces/golden" && "$T" validate *.ecctrace >/dev/null &&
    sha256sum -c --quiet SHA256SUMS >&2)
}

golden_record() {  # re-record the golden traces here
  for f in $(echo "$GOLDEN" | tr , ' '); do
    "$T" record --workload "${f%.ecctrace}" --cores 2 \
      --ops-per-core 512 --out ./ >/dev/null || return 1
  done
  sha256sum -c --quiet "$R/traces/golden/SHA256SUMS" >&2
}

fleet() { "$F" run --spec "$R/examples/fleet_demo.json" --scale 50 --out fleet.json "$@" >/dev/null; }

kill_resume() {  # MC bench: reference run in ref/, then SIGKILL + resume here
  export ECCSIM_SMOKE=1 ECCSIM_MC_CHUNK=32
  mkdir ref && (cd ref && "$B/$1" >stdout 2>stderr) || return 1
  # The delay keeps the run alive long enough for the kill to land
  # mid-run; poll until a chunk is on disk instead of sleeping blind.
  ECCSIM_MC_CHUNK_DELAY_MS=200 "$B/$1" --mc-checkpoint ck.txt >/dev/null 2>killed.err &
  pid=$! n=0
  until grep -q '^mcchunk1 ' ck.txt 2>/dev/null; do
    n=$((n + 1))
    if [ $n -gt 300 ]; then
      kill -9 $pid; wait $pid
      echo "no checkpointed chunk within 30 s" >&2; return 1
    fi
    sleep 0.1
  done
  kill -9 $pid; wait $pid
  "$B/$1" --mc-checkpoint ck.txt 2>resumed.err || return 1
  m=results/smoke/$1.manifest.json
  grep -q resuming resumed.err || { echo "resumed run restored nothing" >&2; return 1; }
  grep -q '"resumed": true' $m && grep -q '"status": "completed"' $m ||
    { echo "$m does not record a completed resumed run" >&2; return 1; }
}

# --- the driver -------------------------------------------------------------
fail() { echo "FAIL $1"; shift; for why; do echo "$why" | sed 's/^/  /'; done; failed=1; }

row() {  # GROUP VARIANT BASELINE FILES COMMAND
  name=$1/$2 d=$W/$1/$2 base=$3 files=$4
  mkdir -p "$d"
  echo "[identity] $name" >&2
  if ! (cd "$d" && set -a && eval "$5") </dev/null >"$d/stdout" 2>"$d/stderr"; then
    fail "$name" "command failed: $5" "$(tail -n 5 "$d/stderr")"; return
  fi
  [ "$files" = - ] && { echo "PASS $name"; return; }
  [ -n "$files" ] || { fail "$name" "no files to compare"; return; }
  why=
  for f in $(echo "$files" | tr , ' '); do
    if [ ! -s "$d/$f" ]; then why="$why$f: missing or empty
"
    elif [ "$base" != - ] && [ ! -s "$base/$f" ]; then why="${why}baseline $base/$f: missing or empty
"
    elif [ "$base" != - ] && ! cmp -s "$base/$f" "$d/$f"; then
      why="$why$f differs from $base/$f:
$(diff "$base/$f" "$d/$f" | head -n 20)
"
    fi
  done
  if [ -n "$why" ]; then fail "$name" "$why"; else echo "PASS $name"; fi
}

while read -r group variant base files cmd; do
  case " $groups " in *" $group "*) ;; *) continue ;; esac
  eval "base=\"$base\" files=\"$files\""
  case $variant in
    kernel=\*)
      ks=$(sed -n 's/.*"kernels_available": "\([^"]*\)".*/\1/p' \
             "$W/smoke/base/$MANIFEST" 2>/dev/null |
           tr , '\n' | grep -xE 'scalar|slice8|simd')
      [ -n "$ks" ] || fail "$group/$variant" "no kernels_available in the baseline's $MANIFEST"
      for k in $ks; do row "$group" "kernel=$k" "$base" "$files" "$cmd"; done ;;
    *) row "$group" "$variant" "$base" "$files" "$cmd" ;;
  esac
done <<EOF
$MATRIX
EOF

[ "$failed" = 0 ] || { echo "identity check FAILED (rows above)" >&2; exit 1; }
echo "identity check: all rows byte-identical" >&2
