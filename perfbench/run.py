"""Benchmark for lllcolor: end-to-end and per-layer numbers, gated on
correct output.

Usage (from the repository root):

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

A closed loop runs one operation at a time; each step of an operation runs
in a fresh child process (``child.py``).  The pipeline workloads run
``lllcolor run`` and then ``lllcolor verify`` on its output; ``finite-lll``
solves and then verifies a seeded batch of finite instances.  Operations
repeat until ``--seconds`` have passed for each workload; with ``all`` the
workloads take turns.  With ``--trace 1`` every other operation is traced
(see ``spans.py``) and the per-layer metrics are printed instead of the
end-to-end ones.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--record-digests`` rewrites ``digests.json`` from one operation per
workload at the default seed; do that only when a change to the program is
meant to change its artifacts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import finite
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 7
# A step still running this long after the measuring time is over is
# killed and its operation fails, so that the benchmark ends within 180 s.
GRACE_S = 140
# The host's speed drifts by a third within a minute (other tenants share
# its cores), so every reported time is scaled to a reference speed: the
# speed at which child.probe() takes REF_PROBE_S.  Wall times are printed too.
REF_PROBE_S = 0.05

# Sizes are scaled so that one operation takes a few seconds on a small
# machine; see README.md for why each workload is here.  The translate
# workloads raise M from its least admissible value 4 to 8: at M = 4 the
# colorer's first phases resample for minutes on some seeds (5 of 0..39).
PIPELINES = {
    "translate-dense": (
        "--mode", "comp", "--f", "sum", "--M", "8", "--members", "50", "--horizon", "16384",
    ),
    "translate-long": (
        "--mode", "comp", "--f", "sum", "--M", "8", "--members", "20", "--horizon", "262144",
    ),
    "image-absdiff": (
        "--mode", "main", "--f", "absdiff", "--members", "24", "--stages", "512",
        "--horizon", "16384",
    ),
}
WORKLOADS = (*PIPELINES, "finite-lll")
ARTIFACTS = {name: ("stream.txt", "coloring.txt", "audit.json", "sparsity.csv") for name in PIPELINES}
ARTIFACTS["finite-lll"] = ("verdicts.txt", "assignments.txt")

END_TO_END = {
    "run_s": "s",
    "verify_s": "s",
    "setup_s": "s",
    "run_peak_rss_mb": "MB",
    "verify_peak_rss_mb": "MB",
}
# Inclusive span times: the metric is the span name plus "_s".
SPAN_TIMES = (
    "hindman.gen_family", "hindman.build_stream", "hindman.format_family",
    "streams.format_manifest", "streams.fingerprint", "streams.validate_sparsity",
    "streams.parse_manifest", "streams.parse_coloring", "streams.format_coloring",
    "colorer.color_prefix", "lll.solve", "lll.parse_instance", "lll.check_condition",
    "lll.verify_assignment", "verify.audit", "verify.sparsity_csv",
)
# Self-time per layer in the run step; they add up to trace.run_s.
RUN_SELF = {
    "cli": "cli.run_self_s", "hindman": "hindman.self_s", "streams": "streams.self_s",
    "colorer": "colorer.self_s", "lll": "lll.self_s", "verify": "verify.self_s",
    "bench": "trace.bench_self_s",
}
# Counters that must repeat exactly for one workload and seed.
DETERMINISTIC = (
    "cli.artifact_bytes", "hindman.constraints", "hindman.positions",
    "streams.format_manifest_calls", "streams.manifest_bytes",
    "streams.sparsity_cells_nonzero", "streams.sparsity_cells_allocated",
    "streams.sparsity_fill_frac", "colorer.phases", "colorer.solve_calls", "colorer.events",
    "colorer.variables", "colorer.events_per_constraint", "lll.samples_drawn",
    "lll.resampled_samples", "lll.certified", "lll.refused", "verify.translates_checked",
)
PER_LAYER = {
    **{f"{name}_s": "s" for name in SPAN_TIMES},
    **{metric: "s" for metric in RUN_SELF.values()},
    "cli.verify_self_s": "s",
    **{name: "count" for name in DETERMINISTIC},
    "cli.artifact_bytes": "bytes",
    "streams.manifest_bytes": "bytes",
    "streams.sparsity_fill_frac": "frac",
    "colorer.events_per_constraint": "frac",
    "trace.run_s": "s",
    "trace.self_sum_frac": "frac",
    "trace.overhead_frac": "frac",
}
NOTES = {"streams.sparsity_cells_allocated": " (computed: sum of len(counts[m]))"}

VERIFY_OK = re.compile(r"^total: \d+ checked, 0 violated$", re.M)


class OperationFailed(Exception):
    pass


class Children:
    """Runs one child process at a time and reaps it with its rusage;
    a child still running at ``deadline`` (monotonic) is killed."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.current: subprocess.Popen | None = None

    def step(self, work: Path, name: str, trace: bool, kind: str, *args: str) -> dict:
        report = work / f"{name}.json"
        with open(work / f"{name}.log", "wb") as log:
            start = time.monotonic()
            self.current = proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), repr(start), str(SRC), str(report),
                 "1" if trace else "0", kind, *args],
                stdout=log, stderr=subprocess.STDOUT, cwd=work,
            )
            timer = threading.Timer(max(1.0, self.deadline - start), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.current = None
        output = (work / f"{name}.log").read_text(encoding="utf-8", errors="replace")
        if proc.returncode != 0 or not report.is_file():
            raise OperationFailed(f"{name} exited {proc.returncode}: {output[-500:]}")
        result = json.loads(report.read_text(encoding="utf-8"))
        result["peak_rss_mb"] = usage.ru_maxrss / 1024
        result["output"] = output
        return result

    def stop(self):
        proc = self.current
        if proc is not None and proc.returncode is None:
            proc.kill()
            proc.wait()


def digests(directory: Path, names) -> dict[str, str]:
    return {n: hashlib.sha256((directory / n).read_bytes()).hexdigest() for n in names}


def run_operation(children, workload, seed, trace, work, expected):
    """One operation; returns (run report, verify report, artifact digests).
    Raises OperationFailed on any wrong output."""
    out = work / "out"
    if workload in PIPELINES:
        run = children.step(work, "run", trace, "cli", "run", *PIPELINES[workload],
                             "--seed", str(seed), "--out", str(out))
        ver = children.step(work, "verify", trace, "cli", "verify",
                            "--coloring", str(out / "coloring.txt"),
                            "--stream", str(out / "stream.txt"))
        audit = json.loads((out / "audit.json").read_text(encoding="utf-8"))
        if not audit["ok"] or audit["violations_total"] != 0:
            raise OperationFailed(f"audit found {audit['violations_total']} violations")
        if not VERIFY_OK.search(ver["output"]):
            raise OperationFailed(f"verify reported violations: {ver['output'][-300:]}")
    else:
        index = finite.write_batch(seed, work)
        run = children.step(work, "run", trace, "finite-run", str(index), str(out))
        ver = children.step(work, "verify", trace, "finite-verify", str(index), str(out))
    got = digests(out, ARTIFACTS[workload])
    if expected is not None and got != expected:
        bad = sorted(n for n in got if got[n] != expected.get(n))
        raise OperationFailed(f"artifact digests differ from digests.json: {', '.join(bad)}")
    return run, ver, got


def layer_metrics(run: dict, ver: dict, out: Path, workload: str) -> dict[str, float]:
    run_self, run_total = spans.summarize(run["spans"])
    ver_self, ver_total = spans.summarize(ver["spans"])
    m: dict[str, float] = {}
    for name in SPAN_TIMES:
        m[f"{name}_s"] = run_total.get(name, 0.0) + ver_total.get(name, 0.0)
    for layer, metric in RUN_SELF.items():
        m[metric] = run_self.get(layer, 0.0)
    m["cli.verify_self_s"] = ver_self.get("cli", 0.0)
    for name, value in run["counters"].items():
        m[name] = value + ver["counters"][name]
    pipeline = workload in PIPELINES
    m["cli.artifact_bytes"] = sum(p.stat().st_size for p in out.iterdir()) if pipeline else 0
    m["streams.manifest_bytes"] = (out / "stream.txt").stat().st_size if pipeline else 0
    allocated = m["streams.sparsity_cells_allocated"]
    m["streams.sparsity_fill_frac"] = m["streams.sparsity_cells_nonzero"] / allocated if allocated else 0.0
    constraints = m["hindman.constraints"]
    m["colorer.events_per_constraint"] = m["colorer.events"] / constraints if constraints else 0.0
    m["trace.run_s"] = run["busy_s"]
    m["trace.self_sum_frac"] = sum(run_self.values()) / run["busy_s"]
    return m


class Tally:
    """Samples of one workload across its operations."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.e2e: dict[str, list[float]] = {name: [] for name in END_TO_END}
        self.wall: dict[str, list[float]] = {"run_s": [], "verify_s": [], "setup_s": []}
        self.layers: list[dict[str, float]] = []
        self.traced_run_s: list[float] = []
        self.counter_mismatch = False

    def add_plain(self, run, ver):
        for name, step, key in (
            ("run_s", run, "busy_s"), ("verify_s", ver, "busy_s"),
            ("setup_s", run, "setup_s"), ("setup_s", ver, "setup_s"),
        ):
            self.e2e[name].append(scaled(step, key))
            self.wall[name].append(step[key])
        self.e2e["run_peak_rss_mb"].append(run["peak_rss_mb"])
        self.e2e["verify_peak_rss_mb"].append(ver["peak_rss_mb"])

    def add_traced(self, run, metrics):
        if self.layers and any(metrics[k] != self.layers[0][k] for k in DETERMINISTIC):
            self.counter_mismatch = True
        self.layers.append(metrics)
        self.traced_run_s.append(scaled(run, "busy_s"))

    def metrics(self, trace: bool) -> dict[str, list[float]]:
        if not trace:
            return self.e2e
        samples = {name: [m[name] for m in self.layers] for name in PER_LAYER if name != "trace.overhead_frac"}
        overhead = statistics.median(self.traced_run_s) / statistics.median(self.e2e["run_s"]) - 1
        samples["trace.overhead_frac"] = [overhead]
        return samples


def scaled(step: dict, key: str) -> float:
    """A child's time scaled to the reference speed (see REF_PROBE_S)."""
    return step[key] * REF_PROBE_S / step["probe_s"]


def describe(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"n={len(values)} min={min(values):.6g} q1={q1:.6g} q3={q3:.6g} max={max(values):.6g}"


def report(tallies: list[Tally], trace: bool) -> dict:
    units = PER_LAYER if trace else END_TO_END
    result = {}
    for tally in tallies:
        print(f"== {tally.workload}: {tally.attempted} operations, {tally.failed} failed")
        print(f"   failed_frac {tally.failed / tally.attempted} (base {tally.attempted} operations)")
        for name, values in tally.metrics(trace).items():
            value = statistics.median(values)
            print(f"   {name} {value:.6g} {units[name]} median, {describe(values)}{NOTES.get(name, '')}")
            if not trace and name in tally.wall:
                print(f"   {name} unscaled wall time: {describe(tally.wall[name])}")
            key = name if len(tallies) == 1 else f"{tally.workload}.{name}"
            result[key] = {"value": value, "unit": units[name]}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "lllcolor" / "__init__.py").is_file():
        print(f"no lllcolor sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    recording = args.record_digests
    if recording and (args.seed != DEFAULT_SEED or args.trace):
        parser.error(f"--record-digests runs untraced at the default seed {DEFAULT_SEED}")
    expected = {}
    if args.seed == DEFAULT_SEED and not recording:
        expected = json.loads(DIGESTS.read_text(encoding="utf-8"))

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + args.seconds * len(names)
    children = Children(deadline + GRACE_S)
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    tallies = [Tally(name) for name in names]
    recorded = {}
    try:
        n = 0
        # Round-robin over the workloads; in a traced run every second
        # operation is traced, and each workload gets at least one of each.
        while n < (2 if args.trace else 1) or (time.monotonic() < deadline and not recording):
            traced = bool(args.trace) and n % 2 == 1
            for tally in tallies:
                work = scratch / f"op{n}-{tally.workload}"
                work.mkdir()
                tally.attempted += 1
                try:
                    run, ver, got = run_operation(
                        children, tally.workload, args.seed, traced, work,
                        expected.get(tally.workload))
                except (OperationFailed, OSError, ValueError, KeyError) as exc:
                    tally.failed += 1
                    print(f"{tally.workload} operation {n} failed: {exc}", file=sys.stderr)
                else:
                    recorded[tally.workload] = got
                    if traced:
                        tally.add_traced(run, layer_metrics(run, ver, work / "out", tally.workload))
                    else:
                        tally.add_plain(run, ver)
                shutil.rmtree(work)
            n += 1
    finally:
        children.stop()
        shutil.rmtree(scratch, ignore_errors=True)

    if recording:
        if any(t.failed for t in tallies):
            print("an operation failed; digests.json left as it was", file=sys.stderr)
            return 1
        DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {DIGESTS} for seed {args.seed}")
        return 0
    if any(not t.e2e["run_s"] or (args.trace and not t.layers) for t in tallies):
        print("no operation succeeded; nothing to report", file=sys.stderr)
        return 1
    metrics = report(tallies, bool(args.trace))
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    mismatch = any(t.counter_mismatch for t in tallies)
    if mismatch:
        print("deterministic counters differ between traced operations", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not mismatch,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
