#!/usr/bin/env bash
# Fleet probe: does attaching a worker only add throughput?
#
# Runs 20 exhaustive jobs, two passes over {ir.cg, ir.lu, ir.fft, ir.gemm,
# ir.stencil3} x {bit-flip-64, bit-flip-32}, through a release-built
# `ftb serve --no-cache --domains 1`: with no worker, and with one
# `ftb worker --domains 1` attached, twice each. Each job is one
# `ftb submit`, which watches it to completion. Prints both wall times,
# their ratio (worker / no worker) and host_cores. A fleet that only adds
# throughput keeps the ratio at or below 1.1.
#
# Not a CI gate: wall times on a shared machine are noise. Run it by hand:
#
#   tools/fleet_probe.sh
#
# The release build goes to .probe_build/ (git-ignored); every daemon,
# worker, socket and state directory lives in a temporary directory that
# is removed on exit.
set -euo pipefail
cd "$(dirname "$0")/.."

dune build --root . --build-dir .probe_build --profile release bin/ftb_cli.exe
ftb="$PWD/.probe_build/default/bin/ftb_cli.exe"

work="$(mktemp -d)"
pids=()
cleanup() {
  for pid in "${pids[@]}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

now() { date +%s.%N; }

# until_ok <what> <command...>: retry for up to 30 s.
until_ok() {
  local what=$1
  shift
  for _ in $(seq 600); do
    if "$@" >/dev/null 2>&1; then return 0; fi
    sleep 0.05
  done
  echo "fleet_probe: $what did not happen within 30 s" >&2
  exit 1
}

# run <tag> <workers>: a fresh daemon with <workers> attached workers runs
# the 20 jobs one after another; sets $elapsed to the wall time of the
# jobs alone. (Not called in a subshell, so cleanup sees every pid.)
run() {
  local tag=$1 workers=$2
  local sock="$work/$tag.sock"
  "$ftb" serve --socket "$sock" --state "$work/$tag.state" --no-cache --domains 1 \
    >"$work/$tag.serve.log" 2>&1 &
  local daemon=$!
  pids+=("$daemon")
  until_ok "the daemon socket" test -S "$sock"
  for i in $(seq "$workers"); do
    "$ftb" worker --connect "$sock" --domains 1 --name "probe-$i" \
      >"$work/$tag.worker-$i.log" 2>&1 &
    pids+=("$!")
    until_ok "worker probe-$i attaching" \
      sh -c "'$ftb' workers --socket '$sock' | grep -q 'probe-$i'"
  done
  local t0 t1
  t0=$(now)
  for _pass in 1 2; do
    for bench in ir.cg ir.lu ir.fft ir.gemm ir.stencil3; do
      for model in bit-flip-64 bit-flip-32; do
        "$ftb" submit "$bench" --socket "$sock" --model "$model" >/dev/null
      done
    done
  done
  t1=$(now)
  kill -TERM "$daemon"
  wait "$daemon" || true
  elapsed=$(awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.3f", b - a }')
}

# Two rounds in ABBA order, so neither setup always runs first; each
# setup's time is the sum of its two rounds.
run alone-1 0; a1=$elapsed
run fleet-1 1; f1=$elapsed
run fleet-2 1; f2=$elapsed
run alone-2 0; a2=$elapsed
alone=$(awk -v x="$a1" -v y="$a2" 'BEGIN { printf "%.3f", x + y }')
fleet=$(awk -v x="$f1" -v y="$f2" 'BEGIN { printf "%.3f", x + y }')
echo "no worker:  ${alone} s (${a1} + ${a2})"
echo "one worker: ${fleet} s (${f1} + ${f2})"
awk -v a="$alone" -v f="$fleet" 'BEGIN { printf "ratio:      %.2f (worker / no worker; at most 1.1 means the worker only adds)\n", f / a }'
echo "host_cores: $(nproc)"
