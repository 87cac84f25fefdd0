#!/usr/bin/env bash
# Full local gate: build, the whole test suite, and every end-to-end
# smoke alias, on a bounded domain count so the run is reproducible on
# small CI machines. FTB_DOMAINS can be overridden from the environment.
# Ends by printing the source line totals of lib/, bin/, test/ and bench/.
#
# The build must be silent: dune only prints when something is wrong,
# so any build output (warnings included) fails the gate loudly instead
# of scrolling past.
set -euo pipefail
cd "$(dirname "$0")/.."

export FTB_DOMAINS="${FTB_DOMAINS:-2}"

echo "== dune build (FTB_DOMAINS=$FTB_DOMAINS)"
build_log="$(mktemp)"
trap 'rm -f "$build_log"' EXIT
if ! dune build 2>&1 | tee "$build_log"; then
  echo "BUILD FAILED" >&2
  exit 1
fi
if [ -s "$build_log" ]; then
  echo "BUILD NOT CLEAN: the output above (warnings?) must be fixed" >&2
  exit 1
fi

echo "== dune runtest"
dune runtest

echo "== smoke aliases"
dune build @campaign-smoke @bench-smoke @service-smoke @chaos-smoke @fleet-smoke @model-smoke @ir-smoke @compose-smoke @audit-smoke @adaptive-smoke @decode-fuzz --force

echo "all checks passed"

# Size on record: each change's growth or shrinkage shows up here.
echo "== size (lines of *.ml + *.mli)"
for dir in lib bin test bench; do
  lines=$(find "$dir" \( -name '*.ml' -o -name '*.mli' \) -print0 | xargs -0 cat | wc -l)
  printf '%-5s %7d\n' "$dir" "$lines"
done
