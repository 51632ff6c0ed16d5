"""One benchmark step, run in its own process by ``run.py``.

Usage: child.py START SRC REPORT TRACE KIND ARGS...

START is the parent's ``time.monotonic()`` just before it started this
process, SRC the package source directory, REPORT the JSON file to write,
TRACE 1 to record spans.  KIND is ``cli`` (ARGS go to ``lllcolor``'s
``main``), ``finite-run`` or ``finite-verify`` (ARGS: batch index, output
directory).  The report holds set-up time (process start to the end of the
imports), the busy time of the call into the layer, its exit code, the time
of a fixed reference loop run just before and after that call (see
``probe``) and, when traced, the spans and work counters.  The step's own
output goes to stdout.
"""

import functools
import json
import sys
import time
from pathlib import Path


def probe() -> float:
    """Time a fixed pure-Python loop.  The host's speed drifts, so the
    parent scales this process's times by how long the loop took here."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(200_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 1023] = acc
    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    start, src, report, trace, kind, *args = argv
    sys.path.insert(0, src)
    import lllcolor.cli

    imported = time.monotonic()
    if not Path(lllcolor.__file__).resolve().is_relative_to(Path(src).resolve()):
        print(f"imported lllcolor from {lllcolor.__file__}, not from {src}", file=sys.stderr)
        return 2
    if kind == "cli":
        step = lambda: lllcolor.cli.main(args)  # noqa: E731 - looks up main when called
    else:
        import finite

        fn = finite.solve_batch if kind == "finite-run" else finite.verify_batch
        step = functools.partial(fn, *args)
    rec = None
    if trace == "1":
        import spans

        rec = spans.install()
        step = rec.span("bench", step)
    before = probe()
    ready = time.monotonic()
    rc = step()
    end = time.monotonic()
    after = probe()
    sys.stdout.flush()
    payload = {
        "setup_s": imported - float(start),
        "busy_s": end - ready,
        "probe_s": (before + after) / 2,
        "rc": rc,
    }
    if rec is not None:
        payload["spans"] = rec.spans
        payload["counters"] = spans.counters(rec)
    Path(report).write_text(json.dumps(payload), encoding="utf-8")
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
