#!/usr/bin/env python3
"""Run one hrbench workload and print its result.

    python3 hrbench/run.py --workload ring-sat|mesh-local|figures \\
        [--seed N] [--seconds S] [--trace 0|1]

Builds hrbench_measure, and the hrsim library it links, from the
checkout's sources into .bench_build/hrbench; runs the workload; checks
every simulated output; and prints, as the last line of stdout, one
JSON object with the keys correct, attempted, failed and metrics.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.

    python3 hrbench/run.py --selftest          # the benchmark's own test
    python3 hrbench/run.py --update-reference  # after a deliberate model change

README.md in this directory describes the workloads and metrics.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hrbench")
MEASURE = os.path.join(BUILD, "hrbench_measure")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("ring-sat", "mesh-local", "figures")
DEFAULT_SEED = 1

END_TO_END = {
    "wall_s": "s",
    "node_cycles_per_s": "node-cycles/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "chunk_ms.p50": "ms",
    "chunk_ms.p95": "ms",
    "figure_s.p50": "s",
}

PER_LAYER = {
    "ring.tick.self_ns_per_cycle": "ns",
    "ring.tick.ns_per_flit_hop": "ns",
    "ring.flit_hops": "count",
    "ring.wait_cycles": "count",
    "ring.escapes": "count",
    "mesh.tick.self_ns_per_cycle": "ns",
    "mesh.tick.ns_per_flit_hop": "ns",
    "mesh.flit_hops": "count",
    "sim.active_nodes.mean": "count",
    "sim.streamed_flit_frac": "frac",
    "workload.proc.self_ns_per_cycle": "ns",
    "workload.proc.tick_frac": "frac",
    "workload.mem.self_ns_per_cycle": "ns",
    "workload.mem.active_mean": "count",
    "workload.deliver.ns_per_cycle": "ns",
    "workload.blocked_frac": "frac",
    "core.loop.self_ns_per_cycle": "ns",
    "core.ff.skipped_frac": "frac",
    "core.sweep.s": "s",
    "core.sweep.points": "count",
    "core.sweep.distinct_frac": "frac",
    "core.point_ms.p50": "ms",
    "core.point_ms.p95": "ms",
    "core.sweep.parallel_eff": "frac",
    "core.topo.s": "s",
    "core.topo.share": "frac",
    "ckpt.save_ms": "ms",
    "ckpt.restore_ms": "ms",
    "ckpt.bytes": "bytes",
    "obs.metrics_write_ms": "ms",
    "paper.table2_match": "frac",
    "paper.crossover_err_nodes": "nodes",
    "trace.overhead_frac": "frac",
    "trace.coverage_frac": "frac",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


class MeasureDied(Exception):
    """hrbench_measure ended abnormally: a failed operation, not a refusal."""


# ----------------------------------------------------------------------
# Build and run hrbench_measure


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("the hrsim sources (CMakeLists.txt, src/) are "
                         "not next to hrbench/; nothing to measure")
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    compile_cmd = ["cmake", "--build", BUILD, "--target", "hrbench_measure",
                   "-j", str(os.cpu_count() or 1)]
    if subprocess.run(compile_cmd, stdout=sys.stderr,
                      timeout=850).returncode != 0:
        raise BenchError("build failed")


def run_measure(workload, seed, seconds, trace, env=None):
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = [MEASURE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--tmp", tmp]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                          timeout=170, text=True)
    # 2: bad arguments; 3: refused (non-Release build, oracle switch).
    if proc.returncode in (2, 3):
        raise BenchError("hrbench_measure exited with %d" % proc.returncode)
    if proc.returncode != 0:
        raise MeasureDied("hrbench_measure died with %d" % proc.returncode)
    text = proc.stdout
    # The raw document, spans included, stays next to the build.
    with open(os.path.join(BUILD, "last-%s-trace%d.json" % (workload, trace)),
              "w") as out:
        out.write(text)
    return json.loads(text)


# ----------------------------------------------------------------------
# Correctness


def close(a, b):
    if isinstance(a, list) or isinstance(b, list):
        return (isinstance(a, list) and isinstance(b, list)
                and len(a) == len(b) and all(map(close, a, b)))
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    return abs(a - b) <= 1e-9 * max(abs(a), abs(b))


def same(out, expected):
    return (out.keys() == expected.keys()
            and all(close(out[k], expected[k]) for k in out))


def conserved(out):
    """issued = completed + outstanding (runs, not Table 2 cells)."""
    if "remote_issued" not in out:
        return True
    issued = out["remote_issued"] + out["local_issued"]
    done = out["remote_completed"] + out["local_completed"]
    return issued == done + out["outstanding"]


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def check(doc, reference, against_reference):
    """Count every simulated run and structural check as one operation.

    A run fails when it breaks conservation, differs from the first
    repetition of the same seed, or (for the reference seed, and for the
    runs whose seed is fixed) differs from @reference, when given. The
    labels do not depend on the seed, so on every seed a label missing
    from @reference, or a reference label the run did not produce, fails.
    """
    tally = Tally()
    for err in doc["errors"]:
        tally.op(False, "exception: " + err)
    seed_free = set(doc["seed_free"])
    reps = doc["reps"]
    if not reps:
        tally.op(False, "no repetition finished")
    first = reps[0]["outputs"] if reps else {}
    for i, rep in enumerate(reps):
        outputs = rep["outputs"]
        for label, out in outputs.items():
            ok = conserved(out)
            if i > 0:
                ok = ok and label in first and same(out, first[label])
            if reference is not None:
                ok = ok and label in reference
                if against_reference or label in seed_free:
                    ok = ok and same(out, reference[label])
            tally.op(ok, "simulated output differs: " + label)
        for label in sorted((reference or {}).keys() - outputs.keys()):
            tally.op(False, "reference output missing: " + label)
    for traced in doc["traced"]:
        for label, out in traced.get("outputs", {}).items():
            tally.op(label in first and same(out, first[label]),
                     "traced != untraced: " + label)
    for c in doc["checks"]:
        tally.op(c["ok"], "check failed: %s %s" % (c["name"], c["detail"]))
    return tally


# ----------------------------------------------------------------------
# Metrics


def percentile(values, q):
    """Nearest-rank percentile of @values (q in [0, 100])."""
    ranked = sorted(values)
    return ranked[max(0, math.ceil(q / 100.0 * len(ranked)) - 1)]


def fastest(runs):
    """The repetition with the least wall time, the least disturbed.

    Repetitions of one seed do identical work, so their differences are
    host interference, which only ever adds time (README.md, Noise).
    """
    return min(runs, key=lambda run: run["wall_s"])


def least_per_position(runs, key):
    """Each position's least time over the repetitions.

    Position i of run[key] is the same piece of work in every
    repetition (the i-th block of cycles, or the i-th figure), so its
    least time is its cost with the least interference.
    """
    return [min(times) for times in zip(*(run[key] for run in runs))]


def end_to_end(doc):
    reps = doc["reps"]
    chunks = least_per_position(reps, "chunk_ms")
    setup = statistics.median(
        doc["setup_s"] + [rep["setup_s"] for rep in reps])
    # A unit of work is its set-up plus its chunks, run back to back.
    wall = setup + sum(chunks) / 1e3
    # A single-run workload's one "figure" is its run.
    figures = least_per_position(reps, "figure_s") or [wall - setup]
    values = {
        "wall_s": wall,
        "node_cycles_per_s": reps[0]["node_cycles"] / wall,
        "setup_s": setup,
        "peak_rss_mb": doc["peak_rss_mb"],
        "chunk_ms.p50": percentile(chunks, 50),
        "chunk_ms.p95": percentile(chunks, 95),
        "figure_s.p50": percentile(figures, 50),
    }
    counts = {"reps": len(reps), "chunks": len(chunks),
              "figures": len(figures)}
    return values, counts


def per_layer(doc):
    best = fastest(doc["traced"])
    layers = best["layers"]
    values = {name: layers.get(name, 0.0) for name in PER_LAYER}
    point_ms = layers.get("point_ms", [])
    if point_ms:
        values["core.point_ms.p50"] = percentile(point_ms, 50)
        values["core.point_ms.p95"] = percentile(point_ms, 95)
    if doc["workload"] != "figures":
        values["trace.overhead_frac"] = (
            best["wall_s"] / fastest(doc["reps"])["wall_s"] - 1.0)
    for name, value in doc["extra"].items():
        if name in PER_LAYER:
            values[name] = value
    return values, {"traced_runs": len(doc["traced"]),
                    "points": len(point_ms)}


def result_line(tally, values, units):
    """The benchmark's last line: the tally and the metrics in @units."""
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    })


def summarize(doc, tally, counts):
    prov = doc["provenance"]
    print("hrbench %s seed=%d trace=%d: num_cpus=%d jobs=%d build=%s "
          "flags='%s' git=%s" % (doc["workload"], doc["seed"], doc["trace"],
                                 prov["num_cpus"], prov["jobs"],
                                 prov["build_type"], prov["cxx_flags"],
                                 prov["git_describe"]))
    print("samples: " + ", ".join("%s=%d" % kv for kv in counts.items()))
    if doc["reps"]:
        for label, out in list(doc["reps"][0]["outputs"].items())[:3]:
            print("outputs %s: %s" % (label, json.dumps(out)))
    for name, value in doc["extra"].items():
        print("%s: %s" % (name, value))
    for problem in tally.problems[:20]:
        print("FAILED " + problem)


def measure(args):
    build()
    with open(REFERENCE) as f:
        reference = json.load(f)["workloads"][args.workload]
    try:
        doc = run_measure(args.workload, args.seed, args.seconds, args.trace)
    except MeasureDied as err:
        tally = Tally()
        tally.op(False, str(err))
        print("FAILED %s" % err)
        print(result_line(tally, {}, {}), flush=True)
        return
    tally = check(doc, reference, args.seed == DEFAULT_SEED)
    if not doc["reps"] or (args.trace and not doc["traced"]):
        # An exception in the first repetition leaves nothing to time:
        # the result reports the failed operations and no metrics.
        if args.trace and doc["reps"]:
            tally.op(False, "no traced run finished")
        summarize(doc, tally, {})
        print(result_line(tally, {}, {}), flush=True)
        return
    if args.trace:
        values, counts = per_layer(doc)
        units = PER_LAYER
    else:
        values, counts = end_to_end(doc)
        units = END_TO_END
    summarize(doc, tally, counts)
    print(result_line(tally, values, units), flush=True)


# ----------------------------------------------------------------------
# Maintenance modes


def update_reference():
    """Store the reference seed's simulated outputs of every workload."""
    build()
    workloads = {}
    for workload in WORKLOADS:
        doc = run_measure(workload, DEFAULT_SEED, 0, 0)
        tally = check(doc, None, False)
        if tally.failed:
            raise BenchError("%s: %s" % (workload, tally.problems))
        workloads[workload] = doc["reps"][0]["outputs"]
    with open(REFERENCE, "w") as f:
        json.dump({"seed": DEFAULT_SEED, "workloads": workloads}, f,
                  indent=1, sort_keys=True)
        f.write("\n")


def selftest():
    """The benchmark's own test: a changed simulated output is a failure.

    Runs ring-sat briefly and asserts that the reference seed passes,
    that another seed checked against the reference-seed outputs counts
    failed operations, that a dropped output and an exception before
    the first repetition finished count as failed, and that
    hrbench_measure refuses to measure under an oracle switch.
    """
    build()
    with open(REFERENCE) as f:
        reference = json.load(f)["workloads"]["ring-sat"]
    def expect(ok, what):
        if not ok:
            raise BenchError("selftest failed: " + what)

    good = run_measure("ring-sat", DEFAULT_SEED, 0, 0)
    expect(check(good, reference, True).failed == 0,
           "the reference seed does not match the reference")
    other = run_measure("ring-sat", DEFAULT_SEED + 1, 0, 0)
    expect(check(other, reference, False).failed == 0,
           "seed %d fails its own checks" % (DEFAULT_SEED + 1))
    tally = check(other, reference, True)
    expect(tally.failed > 0, "a changed output was not counted as failed")
    dropped = json.loads(json.dumps(good))
    for rep in dropped["reps"]:
        rep["outputs"].pop("run")
    expect(check(dropped, reference, True).failed > 0,
           "a reference output the run did not produce was not counted")
    aborted = dict(good, reps=[], traced=[], checks=[],
                   errors=["StallError: no progress"])
    expect(check(aborted, reference, True).failed == 2,
           "an exception in the first repetition was not counted")
    refused = False
    try:
        run_measure("ring-sat", DEFAULT_SEED, 0, 0,
                   env=dict(os.environ, HRSIM_NO_FASTPATH="1"))
    except BenchError:
        refused = True
    expect(refused, "hrbench_measure measured under HRSIM_NO_FASTPATH")
    print("selftest passed: seed %d checked against seed %d counted %d of "
          "%d operations failed" % (DEFAULT_SEED + 1, DEFAULT_SEED,
                                    tally.failed, tally.attempted))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args()
    try:
        if args.selftest:
            selftest()
        elif args.update_reference:
            update_reference()
        elif args.workload is None:
            parser.error("--workload is required")
        else:
            measure(args)
    except (BenchError, subprocess.TimeoutExpired, OSError) as err:
        print("hrbench: %s" % err, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
