"""Finite asymmetric Lovasz Local Lemma instances.

Event probabilities and condition certificates are computed in exact
rational arithmetic (`fractions.Fraction`); floating point never enters a
certified quantity.  The constructive side is a deterministic Moser-Tardos
resampler: violated events are fixed in least-id order, and every sample is
drawn from a counter-based stream keyed by (seed, variable, resample count),
so identical inputs replay byte-for-byte.  The colorer's sets go through
:func:`resample_sets`, the same resampler on fair bits for sets that must
carry both colors, which skips committed positions and builds no events.

Variables may have any finite range; all downstream users of this package
happen to be binary, but nothing here assumes it.
"""

from __future__ import annotations

import heapq
import json
import math
import operator
from array import array
from collections import Counter, defaultdict, deque
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress

from .errors import (
    InvalidInstanceError,
    InvalidInputError,
    InvalidParameterError,
    NonConvergenceError,
    RecordReader,
    UnsatisfiableEventError,
)
from .records import FrozenRecord
from .rng import u64


def frac_str(x: Fraction) -> str:
    """Render a rational as an unambiguous ``p/q`` token."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


@lru_cache(maxsize=64)
def _read_weights(weights: tuple, range_size: int) -> tuple[Fraction, ...]:
    ws = tuple(map(Fraction, weights))
    if len(ws) != range_size:
        raise InvalidInstanceError(f"{len(ws)} weights for range {range_size}")
    if any(w < 0 for w in ws):
        raise InvalidInstanceError("negative weight")
    if sum(ws) != 1:
        raise InvalidInstanceError("weights must sum to exactly 1")
    return ws


class VarSpec(FrozenRecord):
    """A finitely-ranged variable: values ``0..range_size-1`` with exact
    rational weights summing to 1, given as anything ``Fraction`` reads."""

    __slots__ = _fields = ("index", "range_size", "weights")

    def __init__(self, index: int, range_size: int, weights: tuple[Fraction, ...]):
        if index < 0:
            raise InvalidInstanceError(f"variable index must be nonnegative, got {index}")
        if range_size < 1:
            raise InvalidInstanceError(f"variable {index}: range_size must be >= 1")
        try:
            ws = _read_weights(tuple(weights), range_size)
        except InvalidInstanceError as exc:
            raise InvalidInstanceError(f"variable {index}: {exc}") from None
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "range_size", range_size)
        object.__setattr__(self, "weights", ws)


def fair_bit(index: int) -> VarSpec:
    """A fair binary variable."""
    return VarSpec(index, 2, ("1/2", "1/2"))


class Event(FrozenRecord):
    """A bad event: forbidden value rows over a finite variable support.

    Rows are canonicalized (sorted, duplicate-free) and aligned with the
    sorted support ``vbl``.
    """

    __slots__ = _fields = ("id", "vbl", "forbidden")

    def __init__(self, id: int, vbl: tuple[int, ...], forbidden: tuple[tuple[int, ...], ...]):
        vbl = tuple(vbl)
        if not vbl:
            raise InvalidInstanceError(f"event {id}: support must be nonempty")
        if list(vbl) != sorted(set(vbl)):
            raise InvalidInstanceError(f"event {id}: support must be sorted, duplicate-free")
        try:
            rows = tuple(sorted({tuple(map(operator.index, row)) for row in forbidden}))
        except TypeError:
            raise InvalidInstanceError(f"event {id}: values must be integers") from None
        for row in rows:
            if len(row) != len(vbl):
                raise InvalidInstanceError(
                    f"event {id}: forbidden row arity {len(row)} != support size {len(vbl)}"
                )
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "vbl", vbl)
        object.__setattr__(self, "forbidden", rows)


class Assignment(FrozenRecord):
    """A concrete value for every variable in scope."""

    __slots__ = _fields = ("values",)

    def __init__(self, values: Mapping[int, int]):
        object.__setattr__(self, "values", values)


class LLLCertificate(FrozenRecord):
    """Witness that every event satisfied its bound; margins are
    ``Pr[A_j] - bound_j`` (all nonpositive)."""

    __slots__ = _fields = ("r", "q", "margins")

    def __init__(self, r: tuple[Fraction, ...], q: Fraction, margins: tuple[Fraction, ...]):
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "margins", margins)


class ConditionRefusal(FrozenRecord):
    """First event id whose probability exceeds its bound, with all margins."""

    __slots__ = _fields = ("first_violation", "r", "q", "margins")

    def __init__(
        self,
        first_violation: int,
        r: tuple[Fraction, ...],
        q: Fraction,
        margins: tuple[Fraction, ...],
    ):
        object.__setattr__(self, "first_violation", first_violation)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "margins", margins)


def _add_var(table: dict[int, VarSpec], v: VarSpec) -> None:
    if v.index in table:
        raise InvalidInstanceError(f"duplicate specification for variable {v.index}")
    table[v.index] = v


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


def _instance_table(events: Sequence[Event], variables: Sequence[VarSpec]) -> dict[int, VarSpec]:
    """The variables by index, once no variable is specified twice, event ids are
    distinct, and each event's support and values fit its variables, checked
    event by event in list order so the first event at fault is the one named."""
    table: dict[int, VarSpec] = {}
    for v in variables:
        _add_var(table, v)
    if len({e.id for e in events}) != len(events):
        raise InvalidInstanceError("event ids must be distinct")
    for e in events:
        _check_event_ranges(e, table)
    return table


def event_probability(event: Event, variables: Sequence[VarSpec]) -> Fraction:
    """Exact product-measure of the event's forbidden set."""
    return _probability(event, _instance_table((event,), variables))


def _probability(event: Event, table: dict[int, VarSpec]) -> Fraction:
    # pure arithmetic: _instance_table has checked every index and value used here
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
    by_var: dict[int, list[int]] = {}
    for e in events:
        for n in e.vbl:
            by_var.setdefault(n, []).append(e.id)
    out = {e.id: frozenset().union(*map(by_var.__getitem__, e.vbl)) for e in events}
    if len(out) != len(events):
        raise InvalidInstanceError("event ids must be distinct")
    return out


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
    table = _instance_table(events, variables)
    neighbors = dependency_neighbors(events)
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
    return [(acc.numerator, acc.denominator) for acc in accumulate(spec.weights[:-1])]


def _sample(cums: list[tuple[int, int]], u: int) -> int:
    for value, (num, den) in enumerate(cums):
        if u * den < num << 64:
            return value
    return len(cums)


def solve_moser_tardos(
    events: Sequence[Event],
    variables: Sequence[VarSpec],
    seed: int,
    budget: int | None = None,
) -> Assignment:
    """Resample until no event is violated; deterministic in all inputs.

    All variables are initialized from their weights (counter 0); then the
    violated event of least id has exactly its support resampled, each
    variable advancing its own counter.  After a resampling only the events
    on a variable whose value changed, and the resampled event itself, are
    checked again.  Quiescence returns the assignment; exceeding ``budget``
    total resamplings raises ``NonConvergenceError`` carrying the
    resampled-event trace.
    """
    table = _instance_table(events, variables)
    if budget is None:
        budget = default_budget(len(events))
    if budget < 1:
        raise InvalidParameterError("budget must be at least 1")
    for e in events:
        cube = 1
        for n in e.vbl:
            cube *= table[n].range_size
            if cube > len(e.forbidden):
                break
        else:  # the forbidden rows fill the event's whole cube
            raise UnsatisfiableEventError(e.id)

    cums = {v.index: _thresholds(v) for v in variables}
    counters = {v.index: 0 for v in variables}
    current = {v.index: _sample(cums[v.index], u64(seed, v.index, 0)) for v in variables}

    def violated(e: Event) -> bool:
        return tuple(current[n] for n in e.vbl) in e.forbidden

    by_id = {e.id: e for e in events}
    on: defaultdict[int, list[Event]] = defaultdict(list)  # the events on each variable
    for e in events:
        for n in e.vbl:
            on[n].append(e)
    # an entry for every violated event, and stale entries skipped on pop, so
    # the least entry that still holds is the least violated id
    heap = sorted(e.id for e in events if violated(e))
    resamplings = 0
    trace: deque[int] = deque(maxlen=64)
    while heap:
        e = by_id[heapq.heappop(heap)]
        if not violated(e):
            continue
        if resamplings >= budget:
            raise NonConvergenceError(
                resamplings, list(trace), sorted(f.id for f in events if violated(f))
            )
        resamplings += 1
        trace.append(e.id)
        for n in e.vbl:
            counters[n] += 1
            new = _sample(cums[n], u64(seed, n, counters[n]))
            if new != current[n]:
                current[n] = new
                for f in on[n]:
                    if violated(f):
                        heapq.heappush(heap, f.id)
        if violated(e):
            heapq.heappush(heap, e.id)
    return Assignment(dict(sorted(current.items())))


def resample_sets(
    ids: Sequence[int],
    bases: Sequence[tuple[int, ...]],
    shifts: Sequence[int],
    cuts: Sequence[int],
    heads: Sequence[int],
    seed: int,
    budget: int,
) -> dict[int, int]:
    """Resample fair bits until every set carries both colors.

    The sets come as columns, in increasing id order: set i has id
    ``ids[i]``, its domain is ``shifts[i] + x`` for each x in the sorted
    ``bases[i]``, its first ``cuts[i]`` positions are committed and carry
    the one color ``heads[i]`` (-1 when the cut is 0), and the rest are
    free.  Sets that share a base should share one base object, which
    gets one mask.  Each free position ``n`` draws
    ``u64(seed, n, counter) >> 63``, with its own counter.  Order, budget
    and ``NonConvergenceError`` are those of :func:`solve_moser_tardos`,
    which draws the same free bits when each committed position is a
    variable fixed to its bit.  Returns the bit of every free position.
    """
    # the free positions as the bits of one int: a set's tail is its base's
    # mask cut below the first free offset and moved by the shift, and
    # masks[id(base)] is made once per base object
    masks: dict[int, int] = {}
    free = 0
    for base, shift, cut in zip(bases, shifts, cuts):
        if cut < len(base):
            mask = masks.get(id(base))
            if mask is None:
                mask = masks[id(base)] = sum(1 << x for x in base)
            free |= mask >> base[cut] << (shift + base[cut])
    digits = bin(free)[:1:-1]
    bit = {n: u64(seed, n, 0) >> 63 for n in compress(range(len(digits)), map("1".__eq__, digits))}
    count = dict.fromkeys(bit, 0)
    # watch[2i + c] is the offset in set i's base of a free position of
    # color c: -1 while the set needs c and has none (it is violated), -2
    # when its head carries c.
    # The slots watching a position n form a list linked through
    # watching[n], its first slot, and after[slot], the next one (-1 ends
    # it), to move on when n flips.  The least violated set is always
    # resampled next, so no order of the slots changes the resampling order.
    # watch holds offsets read from the bases, -1 or -2, so a list of them
    # makes no int object; a list of slot numbers would make one per slot,
    # so after is an array
    watch = [-1] * (2 * len(ids))
    for i, head in enumerate(heads):
        if head >= 0:
            watch[2 * i + head] = -2
    watching: dict[int, int] = {}
    after = array("q", [-1]) * len(watch)

    def settle(i: int) -> bool:
        # watch a free position of each color set i lacks a watch for
        for slot in (2 * i, 2 * i + 1):
            if watch[slot] == -1:
                shift = shifts[i]
                # a tail from cut 0 is the base itself, not a copy
                for x in bases[i][cuts[i] :]:
                    n = shift + x
                    if bit[n] == slot & 1:
                        watch[slot] = x
                        after[slot] = watching.get(n, -1)
                        watching[n] = slot
                        break
                else:
                    return False
        return True

    heap = [i for i in range(len(ids)) if not settle(i)]
    resamplings = 0
    trace: deque[int] = deque(maxlen=64)
    while heap:
        i = heapq.heappop(heap)
        if settle(i):
            continue
        if resamplings >= budget:
            stuck = [ids[j] for j in range(len(ids)) if not settle(j)]
            raise NonConvergenceError(resamplings, list(trace), stuck)
        resamplings += 1
        trace.append(ids[i])
        shift = shifts[i]
        for x in bases[i][cuts[i] :]:
            n = shift + x
            count[n] += 1
            new = u64(seed, n, count[n]) >> 63
            if new != bit[n]:
                bit[n] = new
                slot = watching.pop(n, -1)
                while slot >= 0:
                    # settle may link this slot to another position
                    next_slot = after[slot]
                    watch[slot] = -1
                    if not settle(slot >> 1):
                        heapq.heappush(heap, slot >> 1)
                    slot = next_slot
        if not settle(i):
            heapq.heappush(heap, i)
    return bit


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
                _add_var(table, VarSpec(int(toks[1]), int(toks[2]), tuple(toks[3:])))
            elif toks[0] == "e":
                eid, k = int(toks[1]), int(toks[2])
                sup = tuple(map(int, toks[3:]))
                if len(sup) != k:
                    raise records.error("support arity mismatch")
                event = Event(eid, sup, ())
                _check_event_ranges(event, table)
                if eid in ids:
                    raise InvalidInstanceError("event ids must be distinct")
                ids.add(eid)
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
