#!/usr/bin/env bash
# Smoke-test checkpoint/restore end to end, across processes: a run
# snapshots itself mid-flight (--save-at + --save-stop), a FRESH
# process restores the snapshot and finishes the run, and the
# restored metrics artifact must be byte-identical to an
# uninterrupted control run everywhere except the volatile manifest
# fields (wall_seconds, node_cycles_per_sec, and the restored_from
# provenance field, which must appear in the resumed artifact and
# must NOT appear in the control — cold-start artifacts keep the
# exact v1 byte layout). A restore under a different config must be
# refused with exit code 3 and a message naming both config keys. A
# save on the slotted ring (no checkpoint support) must be refused
# with exit code 3 and leave no file behind.
#
# Usage: scripts/check_ckpt_smoke.sh HRSIM_CLI METRICS_CHECK \
#            SCHEMA [OUTDIR]
set -euo pipefail

if [[ $# -lt 3 ]]; then
    echo "usage: $0 HRSIM_CLI METRICS_CHECK SCHEMA [OUTDIR]" >&2
    exit 2
fi

cli=$1
checker=$2
schema=$3
outdir=${4:-.}

ckpt="$outdir/ckpt_smoke.ckpt"
control="$outdir/ckpt_smoke_control.json"
resumed="$outdir/ckpt_smoke_resumed.json"
mismatch_err="$outdir/ckpt_smoke_mismatch.err"
slotted_ckpt="$outdir/ckpt_smoke_slotted.ckpt"

# One config, three runs: control (uninterrupted), donor (stops right
# after its cycle-4000 snapshot), resume (fresh process, finishes).
# --metrics-every makes the comparison cover snapshot history too.
common=(--ring 2:4 --line 64 --t 4
        --warmup 2000 --batch 2000 --batches 3 --seed 11
        --metrics-every 2000)

"$cli" "${common[@]}" --metrics-out "$control" >/dev/null
"$cli" "${common[@]}" --save-to "$ckpt" --save-at 4000 --save-stop \
    >/dev/null
"$cli" "${common[@]}" --restore "$ckpt" --metrics-out "$resumed" \
    >/dev/null 2>/dev/null

"$checker" "$schema" "$control"
"$checker" "$schema" "$resumed"

# Everything except the volatile manifest fields must match byte for
# byte: config key, seed, every metric, every snapshot.
strip_volatile() {
    grep -v -e '"wall_seconds"' -e '"node_cycles_per_sec"' \
        -e '"restored_from"' "$1"
}
if ! cmp -s <(strip_volatile "$control") <(strip_volatile "$resumed")
then
    echo "ckpt smoke: restored artifact diverges from the control:" >&2
    diff <(strip_volatile "$control") <(strip_volatile "$resumed") \
        >&2 || true
    exit 1
fi

if ! grep -q '"restored_from"' "$resumed"; then
    echo "ckpt smoke: resumed manifest lacks restored_from" >&2
    exit 1
fi
if grep -q 'restored_from' "$control"; then
    echo "ckpt smoke: restored_from leaked into a cold-start" \
         "artifact (must stay schema-gated)" >&2
    exit 1
fi

# A different config (line size) must be refused: exit code 3 and a
# diagnostic naming both config keys.
rc=0
"$cli" --ring 2:4 --line 32 --t 4 \
    --warmup 2000 --batch 2000 --batches 3 --seed 11 \
    --restore "$ckpt" >/dev/null 2>"$mismatch_err" || rc=$?
if [[ $rc -ne 3 ]]; then
    echo "ckpt smoke: config-mismatch restore exited $rc, want 3" >&2
    exit 1
fi
if ! grep -q 'config mismatch' "$mismatch_err" ||
   ! grep -q 'snapshot:' "$mismatch_err" ||
   ! grep -q 'run:' "$mismatch_err"; then
    echo "ckpt smoke: mismatch diagnostic must name both keys:" >&2
    cat "$mismatch_err" >&2
    exit 1
fi

rm -f "$slotted_ckpt"
rc=0
"$cli" --ring 2:4 --slotted --save-to "$slotted_ckpt" --save-at 100 \
    >/dev/null 2>&1 || rc=$?
if [[ $rc -ne 3 ]]; then
    echo "ckpt smoke: slotted-ring save exited $rc, want 3" >&2
    exit 1
fi
if [[ -e "$slotted_ckpt" ]]; then
    echo "ckpt smoke: a refused slotted-ring save left a file" >&2
    exit 1
fi

echo "ckpt smoke ok: cross-process restore is byte-identical," \
     "provenance recorded, mismatch and slotted save refused (exit 3)"
