"""Tests of the benchmark itself, on workloads shrunk tenfold.

    python3 -m pytest -q perfbench/tests

The checks must pass on the program as it is and must catch a kernel that
answers wrongly; the counts the traced round reports must repeat exactly;
the tracer must put every original back; and the command must refuse to
run where the program's sources are missing.
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import workloads  # noqa: E402
from sendkernel import Kernel  # noqa: E402
from sendkernel.dispatch import B_PAIR, PAIR_TAG, builtin  # noqa: E402

SCALE = 10


def perturbed_builtin(n, m):
    """The built-in table with pair forming off by one on atom heads."""
    if n == B_PAIR and isinstance(m, int):
        return (PAIR_TAG, m + 1)
    return builtin(n, m)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_check_passes(workload, tmp_path):
    r = workloads.run_round(workload, 1, str(tmp_path), scale=SCALE)
    assert r.checks.attempted > r.admitted // 2
    assert r.checks.failed == 0, r.checks.first


@pytest.mark.parametrize("workload", ["hot_echo", "fold_kv"])
def test_a_perturbed_kernel_fails_the_checks(workload, tmp_path):
    r = workloads.run_round(
        workload,
        1,
        str(tmp_path),
        kernel=lambda config: Kernel(config, builtin_fn=perturbed_builtin),
        scale=SCALE,
    )
    assert r.checks.failed > 0


@pytest.mark.parametrize("workload", ["hot_echo", "fold_kv", "routed"])
def test_counts_repeat_exactly(workload, tmp_path):
    (r1, t1), (r2, t2) = [
        workloads.run_traced_round(workload, 3, str(tmp_path / str(i)), SCALE) for i in range(2)
    ]
    m1, m2 = t1.layer_metrics(r1), t2.layer_metrics(r2)
    assert r1.store_bytes / r1.records == r2.store_bytes / r2.records
    for name in ("interpreter.steps_per_tx", "state.log_rows_per_tx"):
        assert m1[name] == m2[name]
        assert m1[name][0] > 0


def test_the_tracer_restores_the_program_and_writes_its_spans(tmp_path):
    from sendkernel import durability, interpreter, txn
    from sendkernel.state import StateView

    def wrappable():
        return (StateView.log_of, interpreter.classify, txn.alloc_sequential, durability.dumps)

    originals = wrappable()
    r, tracer = workloads.run_traced_round("hot_echo", 1, str(tmp_path / "round"), SCALE)
    assert wrappable() == originals

    path = tmp_path / "spans.jsonl.gz"
    tracer.write(str(path))
    with gzip.open(path, "rt") as fh:
        header = json.loads(fh.readline())
        rows = [json.loads(line) for line in fh]
    assert header == ["name", "phase", "thread", "parent", "start_us", "end_us"]
    assert len(rows) == len(tracer.spans)
    names = {row[0] for row in rows}
    assert {"txn.execute", "state.log_of", "durability.append", "sexpr.parse"} <= names
    for name, _, _, parent, start, end in rows:
        assert start <= end
        if parent:
            assert rows[parent - 1][4] <= start and end <= rows[parent - 1][5]


def test_the_command_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__")
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hot_echo", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
