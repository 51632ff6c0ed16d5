"""Tests of the benchmark itself.  Run from the repository root with

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import finite
import run as bench
import spans


def test_self_times_add_up_to_root_duration():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9].
    recorded = [
        ["bench", 0.0, 10.0, -1],
        ["cli.main", 1.0, 4.0, 0],
        ["lll.solve", 2.0, 3.0, 1],
        ["streams.parse_manifest", 5.0, 9.0, 0],
    ]
    self_by_layer, total_by_name = spans.summarize(recorded)
    assert self_by_layer == {"bench": 3.0, "cli": 2.0, "lll": 1.0, "streams": 4.0}
    assert sum(self_by_layer.values()) == 10.0
    assert total_by_name["cli.main"] == 3.0


def test_recorder_links_nested_calls_to_their_parent():
    rec = spans.Recorder()
    inner = rec.span("lll.inner", lambda x: x + 1, note=("seen", lambda args, result: result))
    outer = rec.span("cli.outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert [(s[0], s[3]) for s in rec.spans] == [("cli.outer", -1), ("lll.inner", 0)]
    assert rec.notes == {"seen": [2]}
    assert all(s[1] <= s[2] for s in rec.spans)


def test_finite_batch_depends_only_on_seed(tmp_path):
    texts = []
    for seed, sub in ((3, "a"), (3, "b"), (4, "c")):
        (tmp_path / sub).mkdir()
        index = finite.write_batch(seed, tmp_path / sub)
        texts.append([p.read_text() for p in sorted(index.parent.iterdir())])
    assert texts[0] == texts[1]
    assert texts[0] != texts[2]


def children():
    return bench.Children(time.monotonic() + 120)


def traced_operation(workload, work):
    work.mkdir()
    run, ver, _ = bench.run_operation(children(), workload, 11, True, work, None)
    return run, bench.layer_metrics(run, ver, work / "out", workload)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_deterministic_counters_repeat_exactly(workload, tmp_path):
    (run, first), (_, second) = (
        traced_operation(workload, tmp_path / "a"),
        traced_operation(workload, tmp_path / "b"),
    )
    assert {k: first[k] for k in bench.DETERMINISTIC} == {k: second[k] for k in bench.DETERMINISTIC}
    assert first["lll.samples_drawn"] > 0
    # Per-layer self-times account for the traced run time.
    assert first["trace.self_sum_frac"] == pytest.approx(1.0, abs=0.01)
    assert sum(first[m] for m in bench.RUN_SELF.values()) == pytest.approx(run["busy_s"], rel=0.01)


def test_digest_mismatch_fails_the_operation(tmp_path):
    expected = {name: "0" * 64 for name in bench.ARTIFACTS["finite-lll"]}
    with pytest.raises(bench.OperationFailed, match="digests"):
        bench.run_operation(children(), "finite-lll", 7, False, tmp_path, expected)


def test_refuses_to_run_without_the_program(tmp_path):
    root = bench.ROOT
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((root / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run(
        [sys.executable, *command[1:], "--workload", "finite-lll", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
    assert not list(Path(tmp_path).glob(".perfbench-*"))
