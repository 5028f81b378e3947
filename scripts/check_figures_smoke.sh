#!/usr/bin/env bash
# Smoke-test bench_figures end to end: run one figure with
# HRSIM_METRICS_OUT, validate the artifact against
# the checked-in schema, and check it holds one point per plotted
# config, labelled "<figure id>/<series> P=<processors>". Run as the
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
