"""Steadiness check and same-host comparison for the benchmark.

    python3 perfbench/steady.py --workload fr6-table3 --runs 10 --out a.jsonl
    python3 perfbench/steady.py --from b.jsonl --against a.jsonl

The first form runs the benchmark ``--runs`` times with seeds counting up
from ``--first-seed`` (default 1), one process at a time, appends each
result with its host fingerprint to
``--out``, and prints for every end-to-end metric its median and its
spread: the distance between the first and third quartile as a share of
the median, beside the metric's bound.  A spread above a third of the bound
is flagged.

``--against`` compares the medians of two record files metric by metric.
When the two were recorded on different hosts (Python version or
implementation, platform or CPU count differ) it says so loudly and gives
no verdict: numbers from two hosts are never compared.  The median of the
fingerprints' ``calibration_s`` on each side is printed beside the
comparison as a reading of how fast the host ran; it is not gated on.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
HOST_KEYS = ("python", "implementation", "platform", "cpus")


def load_records(path: str) -> list[dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance ÷ median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def host_differences(a: list[dict[str, Any]], b: list[dict[str, Any]]) -> list[str]:
    """Why two record sets cannot be compared (empty when they can)."""
    problems = []
    for key in HOST_KEYS:
        values_a = {str(r["host"][key]) for r in a}
        values_b = {str(r["host"][key]) for r in b}
        if values_a != values_b:
            problems.append(f"{key}: {sorted(values_a)} vs {sorted(values_b)}")
    return problems


def summarize(records: list[dict[str, Any]], bounds: dict[str, dict[str, Any]]) -> dict[str, float]:
    failed = sum(r["result"]["failed"] for r in records)
    attempted = sum(r["result"]["attempted"] for r in records)
    print(f"{len(records)} runs, {failed}/{attempted} operations failed")
    medians = {}
    for name, spec in bounds.items():
        values = [r["result"]["metrics"][name]["value"] for r in records]
        median, share = spread(values)
        medians[name] = median
        flag = "" if share <= spec["bound"] / 3 else "  <-- above a third of the bound"
        raw = [r["raw"][name] for r in records if name in r.get("raw", {})]
        before = f"  raw {spread(raw)[1]:7.2%}" if len(raw) == len(records) else ""
        print(
            f"  {name:18s} median {median:12.6g} {spec['unit']:6s} "
            f"spread {share:7.2%} (bound {spec['bound']:.0%}){before}{flag}"
        )
    return medians


def compare(
    new: list[dict[str, Any]], old: list[dict[str, Any]], bounds: dict[str, dict[str, Any]]
) -> int:
    problems = host_differences(new, old)
    if problems:
        banner = "!" * 72
        print(banner)
        print("WARNING: these results come from different hosts; no verdict given.")
        for problem in problems:
            print(f"  {problem}")
        print(banner)
        return 0
    for side, records in (("new", new), ("old", old)):
        calibration = statistics.median(r["host"]["calibration_s"] for r in records)
        print(f"{side}: host-speed kernel median {calibration * 1e3:.4f} ms")
    print("new:")
    new_medians = summarize(new, bounds)
    print("old:")
    old_medians = summarize(old, bounds)
    worse = 0
    for name, spec in bounds.items():
        change = (new_medians[name] - old_medians[name]) / old_medians[name]
        if spec["better"] == "higher":
            change = -change
        verdict = "worse than bound" if change > spec["bound"] else "within bound"
        worse += change > spec["bound"]
        print(f"  {name:18s} {change:+7.2%} (positive is worse) {verdict}")
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run the benchmark on this workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1, help="seeds run from here up")
    parser.add_argument("--out", help="record file the runs append to")
    parser.add_argument("--from", dest="source", help="summarize this record file instead")
    parser.add_argument("--against", help="compare with this record file")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    if args.workload:
        if not args.out:
            parser.error("--workload needs --out")
        out = str(Path(args.out).resolve())
        for seed in range(args.first_seed, args.first_seed + args.runs):
            subprocess.run(
                [
                    sys.executable,
                    str(BENCH_DIR / "run.py"),
                    "--workload",
                    args.workload,
                    "--seed",
                    str(seed),
                    "--seconds",
                    str(spec["run_seconds"]),
                    "--trace",
                    "0",
                    "--record",
                    out,
                ],
                cwd=ROOT,
                stdout=subprocess.DEVNULL,
                check=True,
            )
        records = load_records(out)
    elif args.source:
        records = load_records(args.source)
    else:
        parser.error("give --workload or --from")
    if args.against:
        return compare(records, load_records(args.against), bounds)
    summarize(records, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
