"""The finite-lll workload: a seeded batch of finite local-lemma instances.

The parent process writes the batch with :func:`write_batch`; child
processes then run it through the library with :func:`solve_batch`
(parse, certify at two values of q, solve the certified instances) and
:func:`verify_batch` (re-parse and check every assignment).  Instances use
the package's own instance text format, so the program receives only the
generated inputs.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

# (events, variables) per instance.  Sizes are fixed so that every seed does
# the same amount of work; the seed only changes which variables each event
# touches, the weights and the forbidden values.
SHAPES = ((400, 560), (460, 640), (520, 720))
SUPPORT = 8
R = Fraction(1, 64)
QS = (Fraction(1), Fraction(1, 6))
# Non-uniform ternary weights; the rest of the variables are fair bits.
TERNARY = (
    (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
    (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)),
    (Fraction(2, 5), Fraction(2, 5), Fraction(1, 5)),
)


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def instance_text(rng: random.Random, n_events: int, n_vars: int) -> str:
    ranges = []
    lines = [f"vars {n_vars}"]
    for v in range(n_vars):
        weights = rng.choice(TERNARY) if rng.random() < 0.5 else (Fraction(1, 2),) * 2
        ranges.append(len(weights))
        lines.append(f"v {v} {len(weights)} " + " ".join(_frac(w) for w in weights))
    for e in range(n_events):
        support = sorted(rng.sample(range(n_vars), SUPPORT))
        lines.append(f"e {e} {SUPPORT} " + " ".join(map(str, support)))
        lines.append("f " + " ".join(str(rng.randrange(ranges[v])) for v in support))
    return "\n".join(lines) + "\n"


def write_batch(seed: int, directory: Path) -> Path:
    """Write the batch for ``seed`` into ``directory``; return its index file."""
    rng = random.Random(seed)
    entries = []
    for i, (n_events, n_vars) in enumerate(SHAPES):
        path = directory / f"instance{i}.txt"
        path.write_text(instance_text(rng, n_events, n_vars), encoding="utf-8")
        entries.append({"path": path.name, "solve_seed": rng.getrandbits(63)})
    index = directory / "batch.json"
    index.write_text(json.dumps(entries), encoding="utf-8")
    return index


def _load(index: Path):
    from lllcolor import lll

    for i, entry in enumerate(json.loads(index.read_text(encoding="utf-8"))):
        text = (index.parent / entry["path"]).read_text(encoding="utf-8")
        variables, events = lll.parse_instance(text)
        yield i, entry, variables, events


def solve_batch(index: str, out: str) -> int:
    """Certify every instance at each q in QS and solve those certified at
    q = 1.  Writes ``verdicts.txt`` and ``assignments.txt`` into ``out``."""
    from lllcolor import lll

    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    verdicts = []
    assignments = []
    for i, entry, variables, events in _load(Path(index)):
        r = [R] * len(events)
        certified = False
        for q in QS:
            result = lll.check_condition(events, variables, r, q)
            if isinstance(result, lll.LLLCertificate):
                verdicts.append(f"{i} {_frac(q)} accept")
                certified = certified or q == 1
            else:
                verdicts.append(f"{i} {_frac(q)} refuse {result.first_violation}")
        if certified:
            values = lll.solve_moser_tardos(events, variables, entry["solve_seed"]).values
            assignments.append(f"{i} " + " ".join(str(values[n]) for n in sorted(values)))
    (out_dir / "verdicts.txt").write_text("\n".join(verdicts) + "\n", encoding="utf-8")
    (out_dir / "assignments.txt").write_text("\n".join(assignments) + "\n", encoding="utf-8")
    return 0


def verify_batch(index: str, out: str) -> int:
    """Check every assignment in ``out`` against its instance; exit code 1
    when any event holds or an assignment is missing."""
    from lllcolor import lll

    rows = {}
    for line in (Path(out) / "assignments.txt").read_text(encoding="utf-8").splitlines():
        i, *values = line.split()
        rows[int(i)] = values
    bad = 0
    for i, _entry, variables, events in _load(Path(index)):
        if i not in rows:
            print(f"instance {i}: no assignment")
            bad += 1
            continue
        values = dict(zip(sorted(v.index for v in variables), map(int, rows[i])))
        violated = lll.verify_assignment(lll.Assignment(values), events)
        print(f"instance {i}: {len(events)} events, {len(violated)} violated")
        bad += len(violated)
    return 1 if bad else 0
