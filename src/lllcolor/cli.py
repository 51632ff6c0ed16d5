"""Batch front door: generate a staged family, build its constraint stream,
validate sparsity, run the colorer, audit the result, and write every
artifact as plain diffable text.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
malformed input or an unreadable or unwritable path, 3 construction
failure (colorer non-convergence).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

from .colorer import color_prefix, phase_base
from .errors import (
    ConstructionFailureError,
    InvalidParameterError,
    LLLColorError,
    NonConvergenceError,
    ParseError,
    UnsatisfiableEventError,
)
from .hindman import (
    baseline_coloring,
    build_image_stream,
    build_translate_stream,
    builtin_addition_like,
    choose_M,
    format_family,
    gen_family,
    pigeonhole_check,
)
from .lll import (
    check_condition,
    condition_report_json,
    frac_str,
    LLLCertificate,
    parse_instance,
)
from .rng import derive_seed
from .streams import (
    format_coloring,  # noqa: F401 - unused; perfbench/spans.py wraps it by this name
    format_manifest,  # noqa: F401 - unused; perfbench/spans.py wraps it by this name
    ManifestReader,
    parse_coloring,
    parse_manifest,  # noqa: F401 - unused; perfbench/spans.py wraps it by this name
    single_color,
    validate_sparsity,
    write_coloring,
    write_manifest,
)
from .verify import (
    audit_solution,
    sparsity_counts_csv,  # noqa: F401 - unused; perfbench/spans.py wraps it by this name
    write_sparsity_csv,
)

ENV_OUT = "LLLCOLOR_OUT"

# Three pairwise-overlapping events on three fair bits, each of probability
# 1/8: the bundled certification example.
CERT_FIXTURE = """\
vars 3
v 0 2 1/2 1/2
v 1 2 1/2 1/2
v 2 2 1/2 1/2
e 0 3 0 1 2
f 0 0 0
e 1 3 0 1 2
f 1 1 1
e 2 3 0 1 2
f 0 1 0
"""


def _resolve_run(args: argparse.Namespace, q: Fraction):
    fn = builtin_addition_like(args.f)
    if args.mode == "comp" and fn.name != "sum":
        raise InvalidParameterError("comp mode diagonalizes sum translates; use --f sum")
    b = 1 if args.mode == "comp" else fn.mult_bound
    least = choose_M(b, q, args.mode)
    M = args.M if args.M is not None else least
    if M < least:
        raise InvalidParameterError(
            f"M={M} is below the least admissible value {least}", least_valid=least
        )
    if args.members < 1:
        raise InvalidParameterError("members must be at least 1")
    # a horizon inside the first window commits only that window, and the
    # audit starts past it
    if args.horizon <= (guard := phase_base(M)):
        raise InvalidParameterError(
            f"horizon {args.horizon} commits only the first window of {guard} bits, "
            "where the audit starts"
        )
    if args.stages is not None:
        stages = args.stages
    elif args.mode == "comp":
        stages = min(512, max(128, args.horizon // 32))
    else:
        # sigma2 families need churn room up front regardless of horizon
        stages = 512
    return fn, b, M, stages, guard


def cmd_run(args: argparse.Namespace) -> int:
    try:
        q = Fraction(args.q)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {args.q!r}") from exc
    fn, b, M, stages, guard = _resolve_run(args, q)
    out = Path(args.out or os.environ.get(ENV_OUT) or "runs")
    if args.out is None:
        out = out / f"{args.mode}-{args.f}-s{args.seed}-h{args.horizon}"
    out.mkdir(parents=True, exist_ok=True)

    extra = 8
    if args.mode == "comp":
        sizes = tuple(M + i + extra for i in range(args.members))
        family = gen_family(derive_seed(args.seed, 1), args.members, stages, "ce", sizes)
        stream = build_translate_stream(family, M, q)
    else:
        sizes = tuple(b * (M + i) + extra for i in range(args.members))
        family = gen_family(derive_seed(args.seed, 1), args.members, stages, "sigma2", sizes)
        stream = build_image_stream(family, fn, M, q)

    config_echo = {
        "mode": args.mode,
        "f": fn.name,
        "M": M,
        "q": frac_str(q),
        "seed": args.seed,
        "horizon": args.horizon,
        "members": args.members,
        "stages": stages,
        "guard": guard,
    }
    (out / "config.json").write_text(
        json.dumps(config_echo, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    (out / "family.txt").write_text(format_family(family), encoding="utf-8")
    with (out / "stream.txt").open("w", encoding="utf-8") as file:
        write_manifest(stream, file.write)

    sparsity = validate_sparsity(stream, args.horizon)
    with (out / "sparsity.csv").open("w", encoding="utf-8") as file:
        write_sparsity_csv(sparsity, file.write)
    (out / "sparsity.json").write_text(sparsity.summary_json(), encoding="utf-8")
    if not sparsity.ok:
        print(f"sparsity violations: {len(sparsity.violations)}", file=sys.stderr)
        return 1
    # nothing past the sparsity artifacts reads the report: free it before coloring
    del sparsity

    coloring = color_prefix(stream, args.horizon, derive_seed(args.seed, 2))
    with (out / "coloring.txt").open("w", encoding="utf-8") as file:
        write_coloring(coloring, file.write)

    audit = audit_solution(coloring, family, fn, stream=stream)
    (out / "audit.json").write_text(audit.to_json(), encoding="utf-8")

    print(
        f"{args.mode}/{fn.name}: {len(stream)} constraints, committed "
        f"{coloring.committed_len} bits, audited {audit.translates_checked} "
        f"translates, {audit.violations_total} violations"
    )
    if audit.unchecked:
        print(f"members with no audited set: {list(audit.unchecked)}", file=sys.stderr)
    return 0 if audit.ok else 1


def cmd_demo(name: str) -> int:
    if name == "pigeonhole":
        report = pigeonhole_check(12)
        status = "forced for all s <= 12" if report.forced_triple_holds else "NOT forced"
        print(f"corrected triple: {status}")
        print(
            "literal triple: counterexample patterns "
            + (", ".join(report.naive_counterexamples) or "none")
        )
        print(
            "conclusion: some member has a homogeneous translate at every shift: "
            + ("holds (corrected triple)" if report.some_member_recurs else "open")
        )
        return 0
    if name == "baseline":
        a, b = 1, 3
        bits = baseline_coloring(a, b, 0, 32)
        print(f"recurrence coloring for {{{a},{b}}}: {bits}")
        print("s  c(a+s) c(b+s)")
        for s in range(8):
            print(f"{s}  {bits[a + s]}      {bits[b + s]}")
        homogeneous = sum(1 for s in range(32 - b) if bits[a + s] == bits[b + s])
        print(f"homogeneous translates in window: {homogeneous}")
        return 0
    if name == "lll-cert":
        variables, events = parse_instance(CERT_FIXTURE)
        r = [Fraction(1, 3)] * len(events)
        for q in (Fraction(1), Fraction(3, 4)):
            result = check_condition(events, variables, r, q)
            verdict = "accept" if isinstance(result, LLLCertificate) else "refuse"
            print(f"q = {frac_str(q)}: {verdict}")
            print(condition_report_json(result), end="")
        return 0
    raise InvalidParameterError(f"unknown demo {name!r}")


def cmd_verify(coloring_path: Path, stream_path: Path) -> int:
    coloring = parse_coloring(coloring_path.read_text(encoding="utf-8"))
    bits, committed = coloring.bits, coloring.committed_len
    per_size: dict[int, list[int]] = {}
    violated: list[int] = []
    # the report waits for the last line: a malformed one leaves stdout empty
    with stream_path.open(encoding="utf-8") as file:
        # blocks of whole lines: read and hashed a line at a time, verify
        # took about 20 ms longer on the translate-dense bench manifest (2-vCPU VM)
        manifest = ManifestReader(map("".join, iter(partial(file.readlines, 1 << 16), [])))
        for j, dom, _ in manifest:
            if dom[-1] >= committed:
                continue
            stat = per_size.setdefault(len(dom), [0, 0])
            stat[0] += 1
            if single_color(dom, bits):
                stat[1] += 1
                violated.append(j)
    if coloring.stream_fingerprint and coloring.stream_fingerprint != manifest.fingerprint:
        print(
            f"warning: coloring fingerprint {coloring.stream_fingerprint} does not "
            f"match stream {manifest.fingerprint}",
            file=sys.stderr,
        )
    for m in sorted(per_size):
        inside, bad = per_size[m]
        print(f"size {m}: {inside} constraints inside prefix, {bad} violated")
    total = sum(v[0] for v in per_size.values())
    print(f"total: {total} checked, {len(violated)} violated")
    if violated:
        print(f"violated constraint ids: {violated[:10]}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lllcolor",
        description="Certify and solve local-lemma instances; build colorings "
        "that defeat enumerated candidate sets.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    run = sub.add_parser("run", help="full generate/build/color/audit pipeline")
    run.add_argument("--mode", choices=["comp", "main"], required=True)
    run.add_argument("--f", default="sum", choices=["sum", "absdiff"])
    run.add_argument("--M", type=int, default=None, help="size floor (default: least admissible)")
    run.add_argument("--q", default="1/2", help="sparsity exponent, a rational in (0,1)")
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--horizon", type=int, required=True)
    run.add_argument("--members", type=int, default=30)
    run.add_argument("--stages", type=int, default=None)
    run.add_argument("--out", default=None, help=f"output directory (default ${ENV_OUT} or ./runs)")

    demo = sub.add_parser("demo", help="warm-up demonstrations")
    demo.add_argument("name", choices=["pigeonhole", "baseline", "lll-cert"])

    ver = sub.add_parser("verify", help="re-check a coloring against a stream manifest")
    ver.add_argument("--coloring", required=True)
    ver.add_argument("--stream", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.cmd == "run":
            return cmd_run(args)
        if args.cmd == "demo":
            return cmd_demo(args.name)
        if args.cmd == "verify":
            return cmd_verify(Path(args.coloring), Path(args.stream))
        raise InvalidParameterError(f"unknown command {args.cmd!r}")
    except (ConstructionFailureError, NonConvergenceError, UnsatisfiableEventError) as exc:
        _emit_error(exc)
        return 3
    except (LLLColorError, ValueError, OSError) as exc:
        _emit_error(exc)
        return 2


def _emit_error(exc: Exception) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    for attr in ("least_valid", "witness", "phase", "constraint_ids", "event_id", "violated"):
        value = getattr(exc, attr, None)
        if value is not None:
            payload[attr] = value if not isinstance(value, tuple) else list(value)
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def entry() -> None:
    raise SystemExit(main())
