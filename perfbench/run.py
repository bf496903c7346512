"""Benchmark command: durable admission, restart, replay and routing.

    python3 perfbench/run.py --workload hot_echo --seed 1 --seconds 60 --trace 0

Run from the root of a checkout.  Each round of the workload runs in a
fresh process (workloads.py) on the inputs the seed makes; rounds repeat
while another round fits in --seconds, and at least MIN_ROUNDS times.
The last line of standard output is one JSON object: the operations
attempted and failed over all rounds, and the metrics.  With --trace 0
these are the end-to-end metrics, medians over the rounds (latency
percentiles over each transaction's median latency).  With --trace 1
traced and untraced rounds alternate, and the metrics are the per-layer
ones from the traced rounds plus trace.overhead_ratio.  The command exits
non-zero, printing no result, when a round cannot run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
WORKLOADS = ("hot_echo", "fold_kv", "spread_create", "routed")
MIN_ROUNDS = 3
DEADLINE_S = 170  # the whole command must end within 180 s


def run_round(workload: str, seed: int, trace: bool, index: int, deadline: float) -> dict:
    cmd = [
        sys.executable,
        os.path.join(HERE, "workloads.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--out", os.path.join(OUT, f"{workload}-{seed}-{index}"),
    ]
    if trace:
        cmd += ["--trace", "--spans", os.path.join(OUT, f"spans-{workload}.jsonl.gz")]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"round {index} of {workload} ran past the deadline")
    if proc.returncode != 0:
        sys.exit(f"round {index} of {workload} failed with exit code {proc.returncode}")
    figures = json.loads(proc.stdout.splitlines()[-1])
    for failure in figures["first_failures"]:
        print(f"{workload} round {index}: {failure}", file=sys.stderr)
    return figures


def percentile(ordered: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def commit_rate(r: dict) -> float:
    return r["admitted"] / r["admit_s"]


def end_to_end(rounds: list) -> dict:
    def median(f):
        return statistics.median(f(r) for r in rounds)

    # Every round admits the same transactions in the same order, so each
    # transaction's latency is taken as its median over the rounds.
    latencies = sorted(map(statistics.median, zip(*(r["latencies"] for r in rounds))))
    return {
        "setup_s": (median(lambda r: r["setup_s"]), "s"),
        "commit_tx_per_s": (median(commit_rate), "tx/s"),
        "admit_p50_us": (percentile(latencies, 0.50) * 1e6, "us"),
        "admit_p99_us": (percentile(latencies, 0.99) * 1e6, "us"),
        "open_records_per_s": (
            median(lambda r: r["records"] * r["open_repeats"] / r["open_s"]),
            "rec/s",
        ),
        "verify_records_per_s": (median(lambda r: r["records"] / r["verify_s"]), "rec/s"),
        "store_bytes_per_tx": (median(lambda r: r["store_bytes"] / r["records"]), "B"),
        "peak_rss_mb": (median(lambda r: r["peak_rss_kb"] / 1024), "MB"),
    }


def per_layer(traced: list, untraced: list) -> dict:
    metrics = {
        name: (statistics.median(r["layers"][name][0] for r in traced), unit)
        for name, (_, unit) in traced[0]["layers"].items()
    }
    ratio = statistics.median(map(commit_rate, traced)) / statistics.median(
        map(commit_rate, untraced)
    )
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    return metrics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    start = time.monotonic()
    deadline = start + DEADLINE_S
    traced: list = []
    untraced: list = []
    index = 0
    # Start another round only if it should end within --seconds.
    while index < MIN_ROUNDS or (time.monotonic() - start) * (index + 1) / index < args.seconds:
        trace = bool(args.trace) and index % 2 == 1
        figures = run_round(args.workload, args.seed, trace, index, deadline)
        (traced if trace else untraced).append(figures)
        index += 1

    rounds = traced + untraced
    failed = sum(r["failed"] for r in rounds)
    metrics = per_layer(traced, untraced) if args.trace else end_to_end(untraced)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(r["attempted"] for r in rounds),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


if __name__ == "__main__":
    main()
