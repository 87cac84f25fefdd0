#!/usr/bin/env bash
# Full local gate: build, the whole test suite, every end-to-end smoke
# alias, and the committed paper artifacts regenerated byte for byte, on a
# bounded domain count so the run is reproducible on small CI machines.
# FTB_DOMAINS can be overridden from the environment.
# Ends by printing the source line totals of lib/, bin/, test/, bench/ and
# examples/.
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

echo "== paper harness (--quick)"
csv_dir="$(mktemp -d)"
trap 'rm -f "$build_log"; rm -rf "$csv_dir"' EXIT
dune exec bench/main.exe -- --quick --csv "$csv_dir" > /dev/null

echo "== paper artifacts at paper scale (table1-4, fig3, fig4; one domain, release)"
# The exhaustive campaigns behind Tables 1, 2 and 4 and Figure 3, and the
# §3.4 sampler's draws behind Table 3 and Figure 4, are committed under
# results/: a changed outcome byte, draw, RNG value or fold shows as a
# byte difference here. (fig5 is not regenerated: its sweep alone takes
# minutes.)
paper_dir="$(mktemp -d)"
trap 'rm -f "$build_log"; rm -rf "$csv_dir" "$paper_dir"' EXIT
FTB_DOMAINS=1 dune exec --profile release bench/main.exe -- \
  table1 table2 table3 table4 fig3 fig4 --csv "$paper_dir" > /dev/null
for f in table1.csv table2.csv table3.csv table4.csv \
  fig3_cg.csv fig3_lu.csv fig3_fft.csv fig4_cg.csv fig4_lu.csv fig4_fft.csv; do
  cmp "$paper_dir/$f" "results/$f"
done

echo "all checks passed"

# Size on record: each change's growth or shrinkage shows up here.
echo "== size (lines of *.ml + *.mli)"
for dir in lib bin test bench examples; do
  lines=$(find "$dir" \( -name '*.ml' -o -name '*.mli' \) -print0 | xargs -0 cat | wc -l)
  printf '%-9s %7d\n' "$dir" "$lines"
done
