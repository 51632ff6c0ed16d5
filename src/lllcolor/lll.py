"""Finite asymmetric Lovasz Local Lemma instances.

Event probabilities and condition certificates are computed in exact
rational arithmetic (`fractions.Fraction`); floating point never enters a
certified quantity.  The constructive side is a deterministic Moser-Tardos
resampler: violated events are fixed in least-id order, and every sample is
drawn from a counter-based stream keyed by (seed, variable, resample count),
so identical inputs replay byte-for-byte.

Variables may have any finite range; all downstream users of this package
happen to be binary, but nothing here assumes it.
"""

from __future__ import annotations

import heapq
import json
import math
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import (
    InvalidInstanceError,
    InvalidInputError,
    InvalidParameterError,
    NonConvergenceError,
    RecordReader,
    UnsatisfiableEventError,
)
from .rng import u64


def frac_str(x: Fraction) -> str:
    """Render a rational as an unambiguous ``p/q`` token."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class VarSpec:
    """A finitely-ranged variable: values ``0..range_size-1`` with exact
    rational weights summing to 1."""

    index: int
    range_size: int
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if self.index < 0:
            raise InvalidInstanceError(f"variable index must be nonnegative, got {self.index}")
        if self.range_size < 1:
            raise InvalidInstanceError(f"variable {self.index}: range_size must be >= 1")
        ws = tuple(Fraction(w) for w in self.weights)
        object.__setattr__(self, "weights", ws)
        if len(ws) != self.range_size:
            raise InvalidInstanceError(
                f"variable {self.index}: {len(ws)} weights for range {self.range_size}"
            )
        if any(w < 0 for w in ws):
            raise InvalidInstanceError(f"variable {self.index}: negative weight")
        if sum(ws) != 1:
            raise InvalidInstanceError(f"variable {self.index}: weights must sum to exactly 1")


def fair_bit(index: int) -> VarSpec:
    """A fair binary variable."""
    return VarSpec(index, 2, (Fraction(1, 2), Fraction(1, 2)))


@dataclass(frozen=True)
class Event:
    """A bad event: forbidden value rows over a finite variable support.

    Rows are canonicalized (sorted, duplicate-free) and aligned with the
    sorted support ``vbl``.
    """

    id: int
    vbl: tuple[int, ...]
    forbidden: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        vbl = tuple(self.vbl)
        if not vbl:
            raise InvalidInstanceError(f"event {self.id}: support must be nonempty")
        if list(vbl) != sorted(set(vbl)):
            raise InvalidInstanceError(f"event {self.id}: support must be sorted, duplicate-free")
        rows = tuple(sorted({tuple(int(v) for v in row) for row in self.forbidden}))
        for row in rows:
            if len(row) != len(vbl):
                raise InvalidInstanceError(
                    f"event {self.id}: forbidden row arity {len(row)} != support size {len(vbl)}"
                )
        object.__setattr__(self, "vbl", vbl)
        object.__setattr__(self, "forbidden", rows)


@dataclass(frozen=True)
class Assignment:
    """A concrete value for every variable in scope."""

    values: Mapping[int, int]


@dataclass(frozen=True)
class LLLCertificate:
    """Witness that every event satisfied its bound; margins are
    ``Pr[A_j] - bound_j`` (all nonpositive)."""

    r: tuple[Fraction, ...]
    q: Fraction
    margins: tuple[Fraction, ...]


@dataclass(frozen=True)
class ConditionRefusal:
    """First event id whose probability exceeds its bound, with all margins."""

    first_violation: int
    r: tuple[Fraction, ...]
    q: Fraction
    margins: tuple[Fraction, ...]


def _add_var(table: dict[int, VarSpec], v: VarSpec) -> None:
    if v.index in table:
        raise InvalidInstanceError(f"duplicate specification for variable {v.index}")
    table[v.index] = v


def _var_table(variables: Sequence[VarSpec]) -> dict[int, VarSpec]:
    table: dict[int, VarSpec] = {}
    for v in variables:
        _add_var(table, v)
    return table


def _add_id(ids: set[int], eid: int) -> None:
    if eid in ids:
        raise InvalidInstanceError("event ids must be distinct")
    ids.add(eid)


def _check_event_ranges(event: Event, table: dict[int, VarSpec]) -> None:
    for n in event.vbl:
        if n not in table:
            raise InvalidInstanceError(
                f"event {event.id} references variable {n} with no specification"
            )
    for row in event.forbidden:
        _check_row(event, row, table)


def _check_row(e: Event, row: tuple[int, ...], table: dict[int, VarSpec]) -> None:
    for n, val in zip(e.vbl, row):
        if not 0 <= val < table[n].range_size:
            raise InvalidInstanceError(f"event {e.id}: value {val} out of range for variable {n}")


def event_probability(event: Event, variables: Sequence[VarSpec]) -> Fraction:
    """Exact product-measure of the event's forbidden set."""
    return _probability(event, _var_table(variables))


def _probability(event: Event, table: dict[int, VarSpec]) -> Fraction:
    _check_event_ranges(event, table)
    total = Fraction(0)
    for row in event.forbidden:
        # a row's weight as one integer numerator and denominator, reduced once
        num = den = 1
        for n, val in zip(event.vbl, row):
            w = table[n].weights[val]
            num *= w.numerator
            den *= w.denominator
        total += Fraction(num, den)
    return total


def dependency_neighbors(events: Sequence[Event]) -> dict[int, frozenset[int]]:
    """Map each event id to the ids sharing at least one variable with it.

    Every event with nonempty support neighbors itself; bound products
    downstream exclude the event itself.
    """
    ids: set[int] = set()
    by_var: dict[int, list[int]] = {}
    for e in events:
        _add_id(ids, e.id)
        for n in e.vbl:
            by_var.setdefault(n, []).append(e.id)
    out: dict[int, set[int]] = {e.id: set() for e in events}
    for group in by_var.values():
        for eid in group:
            out[eid].update(group)
    return {eid: frozenset(s) for eid, s in out.items()}


def check_condition(
    events: Sequence[Event],
    variables: Sequence[VarSpec],
    r: Sequence[Fraction],
    q: Fraction,
) -> LLLCertificate | ConditionRefusal:
    """Certify ``Pr[A_j] <= q * r_j * prod_{t in N(j), t != j} (1 - r_t)``.

    Evaluated in exact rationals for every event; ``q = 1`` is the plain
    asymmetric condition, ``q < 1`` the strengthened effective one.  Each
    event's product is one integer power per distinct ``r`` among its
    neighbours.
    """
    q = Fraction(q)
    rs = tuple(Fraction(x) for x in r)
    if len(rs) != len(events):
        raise InvalidParameterError(f"need one r per event, got {len(rs)} for {len(events)}")
    if not 0 < q <= 1:
        raise InvalidParameterError(f"q must lie in (0, 1], got {q}")
    if any(not 0 < x < 1 for x in rs):
        raise InvalidParameterError("every r_j must lie in (0, 1)")
    neighbors = dependency_neighbors(events)
    table = _var_table(variables)
    # slot k stands for the k-th distinct r; neighbours are counted per slot,
    # so no Fraction is hashed or multiplied per neighbour
    slot_of: dict[Fraction, int] = {}
    slots = [slot_of.setdefault(x, len(slot_of)) for x in rs]
    factors = [(x.denominator - x.numerator, x.denominator) for x in slot_of]
    slot_by_id = dict(zip((e.id for e in events), slots)).__getitem__
    margins: list[Fraction] = []
    first: int | None = None
    for pos, e in enumerate(events):
        prob = _probability(e, table)
        counts = Counter(map(slot_by_id, neighbors[e.id]))
        counts[slots[pos]] -= 1  # the event itself is not its own neighbour
        num = q.numerator * rs[pos].numerator
        den = q.denominator * rs[pos].denominator
        for k, c in counts.items():
            num *= factors[k][0] ** c
            den *= factors[k][1] ** c
        margin = prob - Fraction(num, den)
        margins.append(margin)
        if margin > 0 and first is None:
            first = e.id
    if first is None:
        return LLLCertificate(rs, q, tuple(margins))
    return ConditionRefusal(first, rs, q, tuple(margins))


def condition_report_json(result: LLLCertificate | ConditionRefusal) -> str:
    """Serialize a certificate or refusal with exact rational strings."""
    accepted = isinstance(result, LLLCertificate)
    payload = {
        "accepted": accepted,
        "q": frac_str(result.q),
        "r": [frac_str(x) for x in result.r],
        "margins": [frac_str(m) for m in result.margins],
        "first_violation": None if accepted else result.first_violation,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def default_budget(n_events: int) -> int:
    """``1000 * n * (1 + log2(n + 1))``: far above the expected resampling
    count of any certified instance, finite for tests."""
    if n_events <= 0:
        return 1
    return int(1000 * n_events * (1 + math.log2(n_events + 1)))


def _thresholds(spec: VarSpec) -> list[tuple[int, int]]:
    # Cumulative weights, final 1 omitted; sample = least value whose
    # cumulative weight exceeds u / 2^64, compared in exact integers.
    cums: list[tuple[int, int]] = []
    acc = Fraction(0)
    for w in spec.weights[:-1]:
        acc += w
        cums.append((acc.numerator, acc.denominator))
    return cums


def _sample(cums: list[tuple[int, int]], u: int) -> int:
    for value, (num, den) in enumerate(cums):
        if u * den < num << 64:
            return value
    return len(cums)


def _trusted_event(eid: int, vbl: tuple[int, ...], rows: tuple[tuple[int, ...], ...]) -> Event:
    # Bypasses canonicalization; callers must supply a sorted duplicate-free
    # support and canonical rows.  Internal use only.
    e = object.__new__(Event)
    object.__setattr__(e, "id", eid)
    object.__setattr__(e, "vbl", vbl)
    object.__setattr__(e, "forbidden", rows)
    return e


def solve_moser_tardos(
    events: Sequence[Event],
    variables: Sequence[VarSpec],
    seed: int,
    budget: int | None = None,
    *,
    validate: bool = True,
) -> Assignment:
    """Resample until no event is violated; deterministic in all inputs.

    All variables are initialized from their weights (counter 0); then the
    violated event of least id has exactly its support resampled, each
    variable advancing its own counter.  Quiescence returns the assignment;
    exceeding ``budget`` total resamplings raises ``NonConvergenceError``
    carrying the resampled-event trace.

    ``validate=False`` skips the per-row range checks for callers that just
    constructed the instance themselves; behavior is otherwise identical.
    """
    table = _var_table(variables)
    if budget is None:
        budget = default_budget(len(events))
    if budget < 1:
        raise InvalidParameterError("budget must be at least 1")
    ids: set[int] = set()
    for e in events:
        _add_id(ids, e.id)
        if validate:
            _check_event_ranges(e, table)
        rows_n = len(e.forbidden)
        cube = 1
        for n in e.vbl:
            cube *= table[n].range_size
            if cube > rows_n:
                break
        if cube <= rows_n:
            raise UnsatisfiableEventError(e.id)

    cums = {v.index: _thresholds(v) for v in variables}
    counters = {v.index: 0 for v in variables}
    current = {v.index: _sample(cums[v.index], u64(seed, v.index, 0)) for v in variables}

    # Violation tracking uses watched positions: every row that currently
    # disagrees somewhere watches one disagreeing position, so a variable
    # change only touches the rows watching it.  A row found to agree
    # everywhere marks its event violated (heap entry); the pop re-verifies
    # and repairs watches, which keeps the scheme sound under stale entries.
    # None of this changes the resampling order or the sample streams.
    event_ids = [e.id for e in events]
    idx_of = {eid: i for i, eid in enumerate(event_ids)}
    vbls = [e.vbl for e in events]
    row_event: list[int] = []
    row_vals: list[tuple[int, ...]] = []
    row_vbl: list[tuple[int, ...]] = []
    event_rows: list[list[int]] = []
    for eidx, e in enumerate(events):
        rids = []
        for row in e.forbidden:
            rids.append(len(row_event))
            row_event.append(eidx)
            row_vals.append(row)
            row_vbl.append(e.vbl)
        event_rows.append(rids)

    watch_pos: list[int] = [-1] * len(row_event)  # -1: no watch (row matched)
    watchers: dict[int, list[int]] = {}
    heap: list[int] = []
    push = heapq.heappush

    def place_watch(rid: int, start: int) -> bool:
        # Find a disagreeing position scanning cyclically from `start`;
        # returns False when the row agrees everywhere (event violated).
        vbl = row_vbl[rid]
        vals = row_vals[rid]
        size = len(vbl)
        for off in range(size):
            pos = start + off
            if pos >= size:
                pos -= size
            if current[vbl[pos]] != vals[pos]:
                watch_pos[rid] = pos
                watchers.setdefault(vbl[pos], []).append(rid)
                return True
        watch_pos[rid] = -1
        return False

    for rid in range(len(row_event)):
        if not place_watch(rid, 0):
            push(heap, event_ids[row_event[rid]])

    resamplings = 0
    trace: deque[int] = deque(maxlen=64)

    def apply_change(n: int, new: int) -> None:
        current[n] = new
        stale = watchers.pop(n, None)
        if not stale:
            return
        keep = []
        for rid in stale:
            pos = watch_pos[rid]
            if row_vals[rid][pos] != new:
                keep.append(rid)
            elif not place_watch(rid, pos + 1):
                push(heap, event_ids[row_event[rid]])
        if keep:
            existing = watchers.get(n)
            if existing:
                existing.extend(keep)
            else:
                watchers[n] = keep

    def violated_rows(eidx: int) -> list[int]:
        # Re-verify on pop: rows without a watch are either matched or lost
        # their watch while marked; repair the latter.
        bad = []
        for rid in event_rows[eidx]:
            if watch_pos[rid] == -1 and not place_watch(rid, 0):
                bad.append(rid)
        return bad

    def all_violated() -> list[int]:
        out = set()
        for rid in range(len(row_event)):
            if watch_pos[rid] == -1 and not place_watch(rid, 0):
                out.add(event_ids[row_event[rid]])
        return sorted(out)

    while heap:
        eid = heapq.heappop(heap)
        eidx = idx_of[eid]
        if not violated_rows(eidx):
            continue
        if resamplings >= budget:
            raise NonConvergenceError(resamplings, list(trace), all_violated())
        resamplings += 1
        trace.append(eid)
        for n in vbls[eidx]:
            counters[n] += 1
            new = _sample(cums[n], u64(seed, n, counters[n]))
            if new != current[n]:
                apply_change(n, new)
        if violated_rows(eidx):
            push(heap, eid)
    return Assignment(dict(sorted(current.items())))


def verify_assignment(assignment: Assignment, events: Sequence[Event]) -> list[int]:
    """Ids of events whose forbidden set contains the assignment; empty iff
    the assignment avoids every event."""
    values = assignment.values
    out = []
    for e in events:
        for n in e.vbl:
            if n not in values:
                raise InvalidInputError(
                    f"assignment is missing variable {n} referenced by event {e.id}"
                )
        row = tuple(values[n] for n in e.vbl)
        if row in e.forbidden:
            out.append(e.id)
    return sorted(out)


def format_instance(variables: Sequence[VarSpec], events: Sequence[Event]) -> str:
    """Line-oriented instance text: ``vars``/``v``/``e``/``f`` records."""
    lines = [f"vars {len(variables)}"]
    for v in variables:
        ws = " ".join(frac_str(w) for w in v.weights)
        lines.append(f"v {v.index} {v.range_size} {ws}")
    for e in events:
        sup = " ".join(str(n) for n in e.vbl)
        lines.append(f"e {e.id} {len(e.vbl)} {sup}")
        for row in e.forbidden:
            lines.append("f " + " ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> tuple[list[VarSpec], list[Event]]:
    """Variables and events of an instance text; events name variables specified above them."""
    table: dict[int, VarSpec] = {}
    ids: set[int] = set()
    declared: int | None = None
    header_line = 0
    weights_of: dict[tuple[str, ...], tuple[Fraction, ...]] = {}  # each weight text parsed once
    # each e record's event, built without rows, and its forbidden rows
    pending: list[tuple[Event, list[tuple[int, ...]]]] = []
    with RecordReader(text) as records:
        for line in records:
            if line[0] == "#":
                continue
            toks = line.split()
            if toks[0] == "vars":
                if declared is not None:
                    raise records.error("repeated vars header")
                declared, header_line = int(toks[1]), records.lineno
                if declared < 0:
                    raise records.error(f"variable count {declared} is negative")
            elif toks[0] == "v":
                key = tuple(toks[3:])
                if key not in weights_of:
                    weights_of[key] = tuple(map(Fraction, key))
                _add_var(table, VarSpec(int(toks[1]), int(toks[2]), weights_of[key]))
            elif toks[0] == "e":
                eid, k = int(toks[1]), int(toks[2])
                sup = tuple(map(int, toks[3:]))
                if len(sup) != k:
                    raise records.error("support arity mismatch")
                event = Event(eid, sup, ())
                _check_event_ranges(event, table)
                _add_id(ids, eid)
                pending.append((event, []))
            elif toks[0] == "f":
                if not pending:
                    raise records.error("forbidden row before any event")
                event, rows = pending[-1]
                row = tuple(map(int, toks[1:]))
                if len(row) != len(event.vbl):
                    raise records.error(
                        f"forbidden row arity {len(row)} != support size {len(event.vbl)}"
                    )
                _check_row(event, row, table)
                rows.append(row)
            else:
                raise records.error(f"unknown record {toks[0]!r}")
    if declared is not None and declared != len(table):
        raise records.error(
            f"header declares {declared} variables, found {len(table)}", header_line
        )
    return list(table.values()), [Event(e.id, e.vbl, rows) for e, rows in pending]
