#!/usr/bin/env bash
# Smoke-test the fault-injection subsystem end to end: a canned plan
# (a mid-run NIC outage on a small ring) must produce a schema-valid
# metrics artifact whose ledger shows the degradation machinery
# actually fired — drop.worms > 0 (worms were drained into the dead
# link) and retry.reissued > 0 (the processors re-drove the lost
# transactions) — and whose fault.* counters conserve flits. A
# control run without a plan must not register any fault.* / drop.* /
# retry.* metric at all (the mode-gated metric convention that keeps
# fault-free artifacts byte-identical to a tree without the
# subsystem). --slotted is ignored for meshes, so a mesh fault plan
# must run with it; on a ring it selects the slotted network, which
# has no fault support and must refuse the plan (exit 1) naming the
# target.
#
# Usage: scripts/check_fault_smoke.sh HRSIM_CLI METRICS_CHECK \
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

fault_out="$outdir/fault_smoke.json"
plain_out="$outdir/fault_smoke_plain.json"
plan_file="$outdir/fault_smoke.plan"
slotted_err="$outdir/fault_smoke_slotted.err"

cat > "$plan_file" <<'PLAN'
# fault_smoke: one NIC outage inside the measured window
timeout 500
retries 6
ring.nic2:down@2500..4500
PLAN

"$cli" --ring 3:6 --line 64 --t 4 \
    --warmup 2000 --batch 2000 --batches 3 \
    --fault-plan "$plan_file" \
    --metrics-out "$fault_out" >/dev/null
"$cli" --ring 3:6 --line 64 --t 4 \
    --warmup 2000 --batch 2000 --batches 3 \
    --metrics-out "$plain_out" >/dev/null

"$checker" "$schema" "$fault_out"
"$checker" "$schema" "$plain_out"

python3 - "$fault_out" "$plain_out" <<'PY'
import json
import sys


def metrics(path):
    with open(path) as fh:
        return json.load(fh)["points"][-1]["metrics"]


faulted = metrics(sys.argv[1])


def expect_positive(name):
    value = faulted.get(name)
    if value is None:
        raise SystemExit(f"{name} missing from the faulted artifact")
    if value <= 0:
        raise SystemExit(f"{name} = {value}: the canned outage must "
                         "exercise the degradation machinery")
    return value


drops = expect_positive("drop.worms")
reissues = expect_positive("retry.reissued")
expect_positive("fault.edges_applied")

injected = faulted.get("fault.injected_flits", 0)
delivered = faulted.get("fault.delivered_flits", 0)
dropped = faulted.get("drop.flits", 0)
if injected < delivered + dropped:
    raise SystemExit(
        f"conservation violated: injected {injected} < delivered "
        f"{delivered} + dropped {dropped}")

for name in metrics(sys.argv[2]):
    if name.startswith(("fault.", "drop.", "retry.")):
        raise SystemExit(
            f"{name} present without a fault plan: mode-gated "
            "metrics must not register on fault-free runs")

print(f"fault smoke ok: drop.worms = {drops:.0f}, "
      f"retry.reissued = {reissues:.0f}")
PY

if ! "$cli" --mesh 4 --slotted --fault "mesh.r5.north:down@100..200" \
    >/dev/null; then
    echo "fault smoke: a mesh fault plan with --slotted must run" >&2
    exit 1
fi

rc=0
"$cli" --ring 2:4 --slotted --fault ring.nic1:down@1..2 \
    >/dev/null 2>"$slotted_err" || rc=$?
if [[ $rc -ne 1 ]] || ! grep -q 'ring.nic1' "$slotted_err"; then
    echo "fault smoke: a slotted-ring fault plan exited $rc, want 1" \
         "with an error naming ring.nic1:" >&2
    cat "$slotted_err" >&2
    exit 1
fi
echo "fault smoke ok: mesh ignores --slotted, slotted ring refuses"
