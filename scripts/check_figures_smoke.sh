#!/usr/bin/env bash
# Smoke-test bench_figures end to end: run one figure with
# HRSIM_METRICS_OUT, validate the artifact against
# the checked-in schema, and check it holds one point per plotted
# config, labelled "<figure id>/<series> P=<processors>". Then run
# fig07 and fig08, which plot the same points: together they must
# print exactly what the two single-figure runs print, and the bench
# runner's memo must simulate the shared points once, so the
# manifest counts the node-cycles of fig07 alone. Run as the
# figures_metrics_smoke ctest, so a broken figure path fails CI
# rather than only the next full regeneration.
#
# Usage: scripts/check_figures_smoke.sh BENCH_FIGURES METRICS_CHECK \
#            SCHEMA [OUTDIR]
set -euo pipefail

if [[ $# -lt 3 ]]; then
    echo "usage: $0 BENCH_FIGURES METRICS_CHECK SCHEMA [OUTDIR]" >&2
    exit 2
fi

figures=$1
checker=$2
schema=$3
outdir=${4:-.}

out="$outdir/figures_metrics_smoke.json"
rm -f "$out"

HRSIM_METRICS_OUT="$out" "$figures" fig16 >/dev/null
"$checker" "$schema" "$out"

python3 - "$out" <<'PY'
import json
import sys

with open(sys.argv[1]) as fh:
    doc = json.load(fh)
labels = [point["label"] for point in doc["points"]]
# Fig. 16: T = 1, 2, 4, each a 10-point mesh and a 10-point ring series.
if len(labels) != 60:
    raise SystemExit(f"expected 60 fig16 points, got {len(labels)}")
bad = [label for label in labels
       if not (label.startswith("fig16/Mesh T=") or
               label.startswith("fig16/Ring T="))]
if bad:
    raise SystemExit(f"labels without the fig16/ prefix: {bad[:3]}")
if doc["manifest"]["node_cycles_per_sec"] <= 0:
    raise SystemExit("manifest node_cycles_per_sec is not positive")
print(f"figures smoke ok: {len(labels)} points")
PY

pair="$outdir/figures_metrics_smoke_pair.json"
single="$outdir/figures_metrics_smoke_fig07.json"
rm -f "$pair" "$single"
HRSIM_METRICS_OUT="$single" "$figures" fig07 >"$outdir/fig07.txt"
"$figures" fig08 >"$outdir/fig08.txt"
HRSIM_METRICS_OUT="$pair" "$figures" fig07 fig08 >"$outdir/fig07_08.txt"
if ! cat "$outdir/fig07.txt" "$outdir/fig08.txt" |
        cmp -s - "$outdir/fig07_08.txt"; then
    echo "bench_figures fig07 fig08 differs from fig07 + fig08" >&2
    exit 1
fi
"$checker" "$schema" "$pair"

python3 - "$single" "$pair" <<'PY'
import json
import sys

def node_cycles(path):
    with open(path) as fh:
        manifest = json.load(fh)["manifest"]
    return manifest["node_cycles_per_sec"] * manifest["wall_seconds"]

single, pair = node_cycles(sys.argv[1]), node_cycles(sys.argv[2])
if single <= 0 or abs(pair - single) > 1e-9 * single:
    raise SystemExit(f"fig07 fig08 counts {pair:.6g} node-cycles, "
                     f"fig07 alone {single:.6g}")
print(f"figures memo smoke ok: {single:.4g} node-cycles either way")
PY
