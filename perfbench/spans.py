"""Span recorder for the traced run.

:func:`install` replaces the package's public functions, under the names
their callers look up, with wrappers that record a span each: name, start,
end and the index of the enclosing span.  Spans stay in memory; the child
process writes them out once its step has finished, and the parent turns
them into per-layer self-times with :func:`summarize`.  A span is named
``<layer>.<what>``, where the layer is the module that owns the function.

Calls to ``lllcolor.lll.u64`` are counted, not timed: the resampler draws
every sample through that name, and a span per sample would swamp the
trace.  The program itself is left untouched.
"""

from __future__ import annotations

import functools
from time import perf_counter


class Recorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.notes: dict[str, list] = {}
        self.samples = 0
        self._stack = [-1]

    def span(self, name, fn, note=None):
        """Wrap ``fn`` so that each call records a span; ``note`` is an
        optional ``(key, extract)`` pair whose ``extract(args, result)`` is
        kept under ``key`` for the work counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, self._stack[-1]]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self._stack.pop()
            if note is not None:
                self.notes.setdefault(note[0], []).append(note[1](args, result))
            return result

        return traced

    def wrap(self, owner, attr, name, note=None):
        setattr(owner, attr, self.span(name, getattr(owner, attr), note))

    def count_samples(self, fn):
        @functools.wraps(fn)
        def counted(*parts):
            self.samples += 1
            return fn(*parts)

        return counted


def _result(args, result):
    return result


def _sizes(args, result):
    return len(args[0]), len(args[1])


def install() -> Recorder:
    """Wrap every layer boundary the pipeline and the finite path cross."""
    from lllcolor import cli, colorer, lll, streams

    rec = Recorder()
    rec.wrap(cli, "main", "cli.main")
    rec.wrap(cli, "gen_family", "hindman.gen_family")
    rec.wrap(cli, "build_translate_stream", "hindman.build_stream", ("stream", _result))
    rec.wrap(cli, "build_image_stream", "hindman.build_stream", ("stream", _result))
    rec.wrap(cli, "format_family", "hindman.format_family")
    for owner in (cli, streams):
        # cmd_run writes the manifest; fingerprint() formats it once more.
        rec.wrap(owner, "format_manifest", "streams.format_manifest")
    rec.wrap(streams.ConstraintStream, "fingerprint", "streams.fingerprint")
    rec.wrap(cli, "validate_sparsity", "streams.validate_sparsity", ("sparsity", _result))
    rec.wrap(cli, "format_coloring", "streams.format_coloring")
    rec.wrap(cli, "parse_manifest", "streams.parse_manifest")
    rec.wrap(cli, "parse_coloring", "streams.parse_coloring")
    rec.wrap(cli, "color_prefix", "colorer.color_prefix", ("coloring", _result))
    rec.wrap(colorer, "solve_moser_tardos", "lll.solve", ("colorer.solve", _sizes))
    rec.wrap(lll, "solve_moser_tardos", "lll.solve", ("lll.solve", _sizes))
    rec.wrap(lll, "parse_instance", "lll.parse_instance")
    rec.wrap(lll, "check_condition", "lll.check_condition", ("verdict", _result))
    rec.wrap(lll, "verify_assignment", "lll.verify_assignment")
    rec.wrap(cli, "audit_solution", "verify.audit", ("audit", _result))
    rec.wrap(cli, "sparsity_counts_csv", "verify.sparsity_csv")
    lll.u64 = rec.count_samples(lll.u64)
    return rec


def counters(rec: Recorder) -> dict[str, int]:
    """Deterministic work counts of one child process."""
    from lllcolor.lll import LLLCertificate

    notes = rec.notes
    built = notes.get("stream", [])
    sparsity = [arr for report in notes.get("sparsity", []) for arr in report.counts.values()]
    colorer_solves = notes.get("colorer.solve", [])
    solved_vars = sum(v for _, v in colorer_solves + notes.get("lll.solve", []))
    verdicts = notes.get("verdict", [])
    certified = sum(isinstance(v, LLLCertificate) for v in verdicts)
    return {
        "hindman.constraints": sum(len(s) for s in built),
        "hindman.positions": sum(len(s.dom(j)) for s in built for j in range(len(s))),
        "streams.format_manifest_calls": sum(s[0] == "streams.format_manifest" for s in rec.spans),
        "streams.sparsity_cells_nonzero": sum(len(arr) - arr.count(0) for arr in sparsity),
        "streams.sparsity_cells_allocated": sum(len(arr) for arr in sparsity),
        "colorer.phases": sum(c.phases for c in notes.get("coloring", [])),
        "colorer.solve_calls": len(colorer_solves),
        "colorer.events": sum(e for e, _ in colorer_solves),
        "colorer.variables": sum(v for _, v in colorer_solves),
        "lll.samples_drawn": rec.samples,
        "lll.resampled_samples": rec.samples - solved_vars,
        "lll.certified": certified,
        "lll.refused": len(verdicts) - certified,
        "verify.translates_checked": sum(a.translates_checked for a in notes.get("audit", [])),
    }


def summarize(spans: list[list]) -> tuple[dict[str, float], dict[str, float]]:
    """Self-time per layer and inclusive time per span name.

    A span's self-time is its duration minus its children's durations;
    spans nest properly, so the self-times of all spans add up to the
    duration of the root spans.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_by_layer: dict[str, float] = {}
    total_by_name: dict[str, float] = {}
    for (name, start, end, _parent), inner in zip(spans, child_time):
        layer = name.split(".")[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + (end - start - inner)
        total_by_name[name] = total_by_name.get(name, 0.0) + (end - start)
    return self_by_layer, total_by_name
