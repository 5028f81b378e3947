#!/usr/bin/env python3
"""Plot the CSV emitted by the hrsim bench binaries.

Every figure bench prints its series twice: an aligned text table and
long-format CSV (``title,series,x,y``). Pipe one or more bench outputs
through this script to get one matplotlib figure per title:

    ./build/bench/bench_figures fig14 | scripts/plot_bench.py
    ./build/bench/bench_figures > bench_output.txt
    scripts/plot_bench.py --out plots/ < bench_output.txt

Trajectory mode instead overlays simulator-throughput snapshots
(``BENCH_simspeed*.json``, as written by scripts/run_simspeed.sh)
so the PR-over-PR perf history is visible at a glance: one line per
benchmark, one x position per snapshot (ordered as given), y =
median node-cycles/s across that snapshot's repetitions:

    scripts/plot_bench.py --trajectory old/BENCH_simspeed.json \\
        BENCH_simspeed.json --out plots/

Matplotlib is required only by this script, not by the library.
"""

import argparse
import collections
import csv
import json
import os
import re
import statistics
import sys


def read_series(stream):
    """Parse ``title,series,x,y`` rows out of mixed bench output."""
    figures = collections.defaultdict(
        lambda: collections.defaultdict(list))
    reader = csv.reader(stream)
    for row in reader:
        if len(row) != 4 or row[0] == "title":
            continue
        title, series, x, y = row
        try:
            figures[title][series].append((float(x), float(y)))
        except ValueError:
            continue  # a table row that happened to contain commas
    return figures


def read_snapshot(path):
    """Median primary rate per benchmark from one simspeed JSON.

    Returns (label, {benchmark: median_rate}). The label names the
    snapshot on the x axis: the recorded git describe when present
    (with the file name as a tiebreaker for re-runs of one commit),
    else the file name.
    """
    with open(path) as fh:
        doc = json.load(fh)
    samples = collections.defaultdict(list)
    for row in doc.get("benchmarks", []):
        if row.get("run_type") == "aggregate":
            continue
        rate = row.get("node_cycles/s", row.get("points/s"))
        if rate is not None:
            samples[row["name"]].append(float(rate))
    medians = {
        name: statistics.median(reps)
        for name, reps in samples.items()
    }
    label = str(doc.get("context", {}).get("hrsim_git", "")).strip()
    if not label:
        label = os.path.basename(path)
    return label, medians


def plot_trajectory(paths, out_dir, logy):
    # Degrade gracefully at the short end of a history: a repo's
    # first benchmarked PR has one snapshot and a fresh clone may
    # have none — neither is an error worth failing a pipeline over.
    if not paths:
        print("no snapshots given; nothing to plot (run "
              "scripts/run_simspeed.sh to record one)",
              file=sys.stderr)
        return 0
    snapshots = []
    for path in paths:
        try:
            snapshots.append(read_snapshot(path))
        except (OSError, json.JSONDecodeError) as err:
            print(f"skipping {path}: {err}", file=sys.stderr)
    if not snapshots:
        print("no readable snapshots", file=sys.stderr)
        return 1
    if len(snapshots) == 1:
        print("single snapshot: no PR-over-PR trend yet; showing "
              "its medians as one column", file=sys.stderr)

    # Disambiguate repeated labels (same commit benchmarked twice).
    seen = collections.Counter()
    labels = []
    for label, _ in snapshots:
        seen[label] += 1
        labels.append(label if seen[label] == 1
                      else f"{label} ({seen[label]})")

    # One line per benchmark present in any snapshot; gaps (a bench
    # added or removed mid-history) simply break the line.
    names = []
    for _, medians in snapshots:
        for name in medians:
            if name not in names:
                names.append(name)

    # Text table first, so the history reads without an image viewer
    # (CI logs) and the mode still works where matplotlib is absent.
    width = max((len(n) for n in names), default=9)
    header = " ".join(f"{lab:>14}" for lab in labels)
    print(f"{'benchmark':<{width}} {header}")
    for name in names:
        cells = []
        for _, medians in snapshots:
            rate = medians.get(name)
            cells.append(f"{rate:>14.4g}" if rate is not None
                         else f"{'-':>14}")
        print(f"{name:<{width}} " + " ".join(cells))

    try:
        import matplotlib
    except ImportError:
        print("matplotlib not available; wrote the text table only",
              file=sys.stderr)
        return 0
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    os.makedirs(out_dir, exist_ok=True)
    fig, ax = plt.subplots(figsize=(8, 5))
    xs = range(len(snapshots))
    for name in names:
        ys = [medians.get(name) for _, medians in snapshots]
        ax.plot(xs, ys, marker="o", markersize=4, label=name)
    ax.set_title("simulator throughput trajectory", fontsize=10)
    ax.set_xticks(list(xs))
    ax.set_xticklabels(labels, rotation=30, ha="right", fontsize=7)
    ax.set_xlabel("snapshot")
    ax.set_ylabel("median rate (node-cycles/s or points/s)")
    if logy:
        ax.set_yscale("log")
    ax.grid(True, alpha=0.3)
    ax.legend(fontsize=7)
    path = os.path.join(out_dir, "simspeed_trajectory.png")
    fig.tight_layout()
    fig.savefig(path, dpi=130)
    plt.close(fig)
    print(f"wrote {path}")
    return 0


def safe_name(title):
    return re.sub(r"[^A-Za-z0-9]+", "_", title).strip("_")[:80]


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default="plots",
                        help="output directory for PNGs")
    parser.add_argument("--logy", action="store_true",
                        help="log-scale the y axis")
    parser.add_argument("--trajectory", nargs="*", metavar="JSON",
                        help="overlay node-cycles/s medians from "
                             "BENCH_simspeed*.json snapshots "
                             "(oldest first) instead of reading "
                             "figure CSV from stdin")
    args = parser.parse_args()

    if args.trajectory is not None:
        return plot_trajectory(args.trajectory, args.out, args.logy)

    figures = read_series(sys.stdin)
    if not figures:
        print("no CSV series found on stdin", file=sys.stderr)
        return 1

    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    os.makedirs(args.out, exist_ok=True)
    for title, series in figures.items():
        fig, ax = plt.subplots(figsize=(7, 4.5))
        for name, points in series.items():
            points.sort()
            xs = [p[0] for p in points]
            ys = [p[1] for p in points]
            ax.plot(xs, ys, marker="o", markersize=3, label=name)
        ax.set_title(title, fontsize=9)
        ax.set_xlabel("nodes")
        ax.set_ylabel("value")
        if args.logy:
            ax.set_yscale("log")
        ax.grid(True, alpha=0.3)
        ax.legend(fontsize=7)
        path = os.path.join(args.out, safe_name(title) + ".png")
        fig.tight_layout()
        fig.savefig(path, dpi=130)
        plt.close(fig)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
