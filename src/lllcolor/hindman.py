"""Addition-like pair functions, staged set enumerations, and the stream
builders that defeat every enumerated candidate set by translation or by
pair-function images.

A staged family mocks an enumeration of sets: ``member_at(i, s)`` is the
finite approximation of member i at stage s, monotone in "ce" mode and
freely churning in "sigma2" mode (membership means eventual permanent
presence).  From a family the two builders emit constraint streams:

* translate streams: once member i has shown ``M + i`` elements, every
  translate of that prefix by s joins the stream;
* image streams: at each stage the ``b*(M+i)`` longest-tenured elements
  form a candidate set whose pair-function image at the current stage is
  emitted, provided the image clears the member's stability start and
  every image emitted from earlier, pre-stability stages.

Both builders install a procedural point-locality oracle whose counts stay
within the sparsity budget checked by ``validate_sparsity``.

The warm-up demos live here too: the delayed-alternation coloring that
defeats a single announced difference, and the exhaustive two-member
pigeonhole obstruction.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from operator import le
from typing import Callable, Iterator, Sequence

from .errors import (
    InvalidInputError,
    InvalidParameterError,
    ParseError,
    RecordReader,
    StreamIntegrityError,
)
from .rng import u64
from .streams import ConstraintStream, _Positions

MODE_CE = "ce"
MODE_SIGMA2 = "sigma2"


@dataclass(frozen=True)
class AdditionLike:
    """A symmetric pair function with a growth witness and a uniform
    multiplicity bound.

    ``pair(x, y)`` is defined for x != y and symmetric; ``y > growth(x, n)``
    implies ``pair(x, y) > n``; for fixed x at most ``mult_bound`` values z
    share any one value ``pair(x, z)``.
    """

    name: str
    pair: Callable[[int, int], int]
    growth: Callable[[int, int], int]
    mult_bound: int


def builtin_addition_like(name: str) -> AdditionLike:
    """The two canonical pair functions: ``sum`` and ``absdiff``."""
    if name == "sum":
        return AdditionLike("sum", lambda x, y: x + y, lambda x, n: n, 1)
    if name == "absdiff":
        return AdditionLike("absdiff", lambda x, y: abs(x - y), lambda x, n: x + n, 2)
    raise InvalidParameterError(f"unknown addition-like function {name!r}")


def _check_change(
    mode: str,
    stage_count: int,
    i: int,
    prev: tuple[int, frozenset[int]] | None,
    point: tuple[int, frozenset[int]],
) -> None:
    """Raise unless change point ``point`` may follow ``prev`` (None for
    the first) in member i's change list."""
    s, members = point
    if not 0 <= s < stage_count:
        raise InvalidInputError(f"member {i}: change stage {s} out of range")
    if prev is not None and s <= prev[0]:
        raise InvalidInputError(f"member {i}: change stages must increase")
    for x in members:
        if x < 0 or x >= s:
            raise StreamIntegrityError(
                f"member {i}: element {x} present at stage {s} violates x < s",
                witness=(i, s, x),
            )
    if mode == MODE_CE and prev is not None and not prev[1] <= members:
        raise InvalidInputError(f"member {i}: ce families must grow monotonically")


@dataclass(frozen=True)
class StagedFamily:
    """Stagewise approximations of ``count`` enumerated sets.

    ``changes[i]`` lists (stage, full set) change points; between change
    points membership is constant.  Every element obeys the convention
    x < stage at the stage it appears.  ce mode additionally requires
    monotone growth.
    """

    mode: str
    count: int
    stage_count: int
    changes: tuple[tuple[tuple[int, frozenset[int]], ...], ...]

    def __post_init__(self):
        if self.mode not in (MODE_CE, MODE_SIGMA2):
            raise InvalidParameterError(f"unknown family mode {self.mode!r}")
        if self.count != len(self.changes):
            raise InvalidInputError("one change list per member required")
        if self.stage_count < 1:
            raise InvalidParameterError("stage_count must be at least 1")
        canon = []
        for i, points in enumerate(self.changes):
            pts = tuple((int(s), frozenset(p)) for s, p in points)
            prev = None
            for point in pts:
                _check_change(self.mode, self.stage_count, i, prev, point)
                prev = point
            canon.append(pts)
        object.__setattr__(self, "changes", tuple(canon))

    def member_at(self, i: int, s: int) -> frozenset[int]:
        if not 0 <= i < self.count:
            raise InvalidParameterError(f"member {i} out of range")
        if not 0 <= s < self.stage_count:
            raise InvalidParameterError(f"stage {s} out of range")
        points = self.changes[i]
        pos = bisect_right(points, s, key=lambda pt: pt[0])
        return points[pos - 1][1] if pos else frozenset()


def _selection_timeline(
    family: StagedFamily, i: int, k: int
) -> list[tuple[frozenset[int], int]]:
    """Member i's ``(selection, since)`` at every stage, indexed by stage.

    The selection keeps the k longest-tenured present elements (none while
    fewer are present), ordering by (tenure start, value); tenure resets
    when an element leaves and re-enters.  ``since`` is the stage the
    selection last changed; stages between change points share one entry.
    """
    timeline: list[tuple[frozenset[int], int]] = []
    entry: tuple[frozenset[int], int] = (frozenset(), 0)
    present: frozenset[int] = frozenset()
    tenure: dict[int, int] = {}
    for s, incoming in family.changes[i]:
        timeline.extend([entry] * (s - len(timeline)))
        for x in incoming - present:
            tenure[x] = s
        for x in present - incoming:
            del tenure[x]
        present = incoming
        if len(present) < k:
            chosen: frozenset[int] = frozenset()
        else:
            ranked = sorted(present, key=lambda x: (tenure[x], x))
            chosen = frozenset(ranked[:k])
        if chosen != entry[0]:
            entry = (chosen, s)
    timeline.extend([entry] * (family.stage_count - len(timeline)))
    return timeline


def _first_selected(timeline: list[tuple[frozenset[int], int]]) -> int | None:
    """The first stage with a nonempty selection, or None."""
    return next((s for s, (selection, _) in enumerate(timeline) if selection), None)


def _least(pred: Callable[[int], bool], lo: int) -> int:
    """The least m >= lo with pred(m), for a pred that once true stays true."""
    hi = lo
    while not pred(hi):
        lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def choose_M(b: int, q: Fraction, mode: str) -> int:
    """Least M such that the size-m point-count ceiling stays below
    ``2**(q*m)`` for all m >= M: ceiling m in translate ("comp") mode,
    ``b * m**2`` in image ("main") mode.

    With ``q = a/d`` the bound holds at m iff ``f(m) = d*log2(coef*m**exp)
    - a*m <= 0``.  The increments of f never increase, so f rises up to its
    peak, the least m where it does not rise, and never rises after it.  The
    peak and the first m past it where the bound holds are each found by
    doubling and bisection over exact integer comparisons; the bound fails
    only between the two, or nowhere if it holds at the peak.  The result
    is raised to the doubling floor ``ceil(2/(1-q))``, the index doubling
    under which the lemma's set form follows from its word form: a set is
    its two constant words, and from that M on, doubling the indices costs
    no more than raising q to ``(1+q)/2``.
    """
    if b < 1:
        raise InvalidParameterError("multiplicity bound must be at least 1")
    q = Fraction(q)
    if not 0 < q < 1:
        raise InvalidParameterError(f"q must lie in (0, 1), got {q}")
    if mode not in ("comp", "main"):
        raise InvalidParameterError(f"unknown mode {mode!r}")
    a, d = q.numerator, q.denominator
    exp = 1 if mode == "comp" else 2
    coef = 1 if mode == "comp" else b

    def holds(m: int) -> bool:
        return (coef * m**exp) ** d <= 1 << (a * m)

    def falls(m: int) -> bool:
        # f(m + 1) <= f(m)
        return (m + 1) ** (exp * d) <= (1 << a) * m ** (exp * d)

    peak = _least(falls, 1)
    last_fail = 0 if holds(peak) else _least(holds, peak + 1) - 1
    doubling_floor = math.ceil(Fraction(2, 1 - q))
    return max(last_fail + 1, doubling_floor)


def _diagonal_pairs(count: int, stage_count: int) -> Iterator[tuple[int, int]]:
    # (i, s) in ascending Cantor index over the finite rectangle.
    for total in range(count + stage_count - 1):
        for s in range(max(0, total - count + 1), min(total, stage_count - 1) + 1):
            yield total - s, s


def build_translate_stream(
    family: StagedFamily, M: int, q: Fraction = Fraction(1, 2)
) -> ConstraintStream:
    """Translates of enumeration prefixes, in diagonal pairing order.

    Member i contributes once it has enumerated ``M + i`` elements; from its
    defining stage onward every translate prefix+s joins the stream.  The
    stream holds each member's prefix once, as a base, and each translate
    as that base's id and a shift.  The locality oracle inverts n = x + s
    over the member's elements, so at most m translates of size m pass
    through any point.  Diagonal order emits a member's shifts in
    increasing s, so the oracle finds the id of shift s at
    ``ids[i][s - defined]`` in that member's list of item ids.
    """
    if family.mode != MODE_CE:
        raise InvalidInputError("translate streams require a ce-mode family")
    q = Fraction(q)
    least = choose_M(1, q, "comp")
    if M < least:
        raise InvalidParameterError(
            f"M={M} violates the size arithmetic; least valid M is {least}",
            least_valid=least,
        )
    count, stages = family.count, family.stage_count
    base: list[tuple[tuple[int, ...], int] | None] = []
    for i in range(count):
        timeline = _selection_timeline(family, i, M + i)
        s = _first_selected(timeline)
        base.append(None if s is None else (tuple(sorted(timeline[s][0])), s))

    bases: list[tuple[int, ...]] = []
    # base_id[i]: the id of member i's base, numbered in order of first use
    base_id: dict[int, int] = {}
    base_ids: list[int] = []
    shifts: list[int] = []
    prov: list[tuple[int, int]] = []
    # ids[i]: member i's item ids, in increasing shift
    ids: list[list[int]] = [[] for _ in range(count)]
    # Bases of different members differ in size and the shifts of one base
    # are distinct, so every translate is new.
    for i, s in _diagonal_pairs(count, stages):
        got = base[i]
        if got is None or s < got[1]:
            continue
        elements = got[0]
        if i not in base_id:
            base_id[i] = len(bases)
            bases.append(tuple(map(elements[0].__rsub__, elements)))
        ids[i].append(len(shifts))
        prov.append((i, s))
        base_ids.append(base_id[i])
        shifts.append(s + elements[0])

    def locality(m: int, n: int) -> tuple[int, ...]:
        i = m - M
        if i < 0 or i >= count or base[i] is None:
            return ()
        elements, defined = base[i]
        # the largest element gives the least shift, and so the least id
        shifts = (n - x for x in reversed(elements))
        return tuple(ids[i][s - defined] for s in shifts if defined <= s < stages)

    return ConstraintStream.from_bases(M, q, bases, base_ids, shifts, tuple(prov), locality)


def build_image_stream(
    family: StagedFamily, fn: AdditionLike, M: int, q: Fraction = Fraction(1, 2)
) -> ConstraintStream:
    """Pair-function images of sigma2 candidate sets, gated for freshness.

    At pair (i, s) with a nonempty candidate set E and stability start s0,
    the image F = {pair(x, s) : x in E} is emitted iff min F > s0 and min F
    exceeds every image value of this member's candidate sets at stages
    before s0.  The gate reads only member i's own earlier stages, so each
    member's images are computed in one pass and then merged into diagonal
    pairing order.  The gating keeps per-point counts within ``b * m**2``
    items of size m and makes the locality oracle computable from the
    growth witness: beyond the stage bound it yields, images are too large
    to contain the queried point.

    Each item is stored once, as the id of its base (the image minus its
    least value, held once in a table) and its least value as the shift.
    The oracle keeps each member's emissions per image size in stage
    order, indexed by position: bit r of ``hits[n]`` is set iff the r-th
    emission holds n.  A query drops the bits at or past the stage bound,
    computed from the member's selection at stage n.  ``growth`` is an
    arbitrary callable, so nothing about it is cached or assumed monotone;
    a query scans its values and stops at the first that reaches the stage
    of the last emission holding n, as then no bit can be dropped.
    """
    if family.mode != MODE_SIGMA2:
        raise InvalidInputError("image streams require a sigma2-mode family")
    q = Fraction(q)
    least = choose_M(fn.mult_bound, q, "main")
    if M < least:
        raise InvalidParameterError(
            f"M={M} violates the size arithmetic for b={fn.mult_bound}; "
            f"least valid M is {least}",
            least_valid=least,
        )
    b = fn.mult_bound
    count = family.count

    # selections[i][s]: member i's selection at stage s, largest element
    # first, where the builtin growth witnesses peak; stages with one
    # selection share one tuple
    selections: list[list[tuple[int, ...]]] = []
    # (i + s, s, i, base key, shift): sorting gives the diagonal pairing
    # order, and (i + s, s) is unique, so nothing after it is compared
    emitted: list[tuple[int, int, int, int, int]] = []
    # key[base]: a key per distinct image base, in order of computation
    key: dict[tuple[int, ...], int] = {}
    # records[size][i]: (stages, ids, hits) of member i's emissions of that
    # size, in stage order, where bit r of hits[n] is set iff the r-th one
    # holds position n; the ids follow once the diagonal order numbers them
    records: dict[int, dict[int, tuple[list[int], list[int], dict[int, int]]]] = {}
    # the oracle's index shares one int per distinct position
    position = _Positions(int).__getitem__
    for i in range(count):
        timeline = _selection_timeline(family, i, b * (M + i))
        ordered = {e: tuple(sorted(e, reverse=True)) for e, _ in dict.fromkeys(timeline)}
        selections.append([ordered[e] for e, _ in timeline])
        # running_max[s]: the largest image value over stages up to s
        running_max: list[int | None] = []
        run: int | None = None
        for s, (selection, s0) in enumerate(timeline):
            if selection:
                values = list(map(fn.pair, selection, repeat(s)))
                lo = min(values)
                prior = running_max[s0 - 1] if s0 > 0 else None
                if lo > s0 and (prior is None or lo > prior):
                    image = sorted(set(map(position, values)))
                    base = tuple(map(lo.__rsub__, image))
                    emitted.append((i + s, s, i, key.setdefault(base, len(key)), lo))
                    at, _, hits = records.setdefault(len(image), {}).setdefault(i, ([], [], {}))
                    bit = 1 << len(at)
                    at.append(s)
                    for n in image:
                        hits[n] = hits.get(n, 0) | bit
                peak = max(values)
                run = peak if run is None else max(run, peak)
            running_max.append(run)
    emitted.sort()

    bases = list(key)
    # base_id[k]: the id of the base with key k, numbered in order of first use
    base_id: dict[int, int] = {}
    base_ids: list[int] = []
    shifts: list[int] = []
    prov: list[tuple[int, int]] = []
    # seen[(k, shift)]: the id of the item with base key k and that shift
    seen: dict[tuple[int, int], int] = {}
    for _, s, i, k, shift in emitted:
        base = bases[k]
        if len(base) < M + i:
            raise StreamIntegrityError(
                f"image of member {i} at stage {s} has {len(base)} values; "
                f"multiplicity bound {b} promises at least {M + i}",
                witness=(i, s),
            )
        j = seen.setdefault((k, shift), len(shifts))
        if j == len(shifts):
            base_ids.append(base_id.setdefault(k, len(base_id)))
            shifts.append(shift)
            prov.append((i, s))
        # a member's emissions of one size come in stage order here too
        records[len(base)][i][1].append(j)

    def locality(m: int, n: int) -> tuple[int, ...]:
        out: set[int] = set()
        for i, (at, ids, hits) in records.get(m, {}).items():
            mask = hits.get(n, 0)
            if not mask:
                continue
            # the bound drops a bit only if n and every growth value fall
            # short of the stage of the last emission holding n, and then
            # it lies inside the stages
            last = at[mask.bit_length() - 1]
            if n < last and not any(
                map(le, repeat(last), map(fn.growth, selections[i][n], repeat(n)))
            ):
                growth = max(map(fn.growth, selections[i][n], repeat(n)), default=n)
                mask &= (1 << bisect_left(at, max(n, growth) + 1)) - 1
            # the mask's binary digits, lowest first, select from ids
            out.update(compress(ids, map("1".__eq__, bin(mask)[:1:-1])))
        return tuple(sorted(out))

    return ConstraintStream.from_bases(
        M, q, [bases[k] for k in base_id], base_ids, shifts, tuple(prov), locality
    )


def baseline_coloring(a: int, b: int, announce_stage: int, horizon: int) -> str:
    """Delayed-alternation coloring defeating translates of {a, b}.

    Bits are 0 until both the announcement stage and the difference
    d = b - a have passed; afterwards c(s) = 1 - c(s - d), so c(a + s) and
    c(b + s) differ for every s past announce_stage + d with b + s inside
    the horizon.
    """
    if not 0 <= a < b:
        raise InvalidParameterError("need 0 <= a < b")
    d = b - a
    if horizon <= announce_stage + 2 * d:
        raise InvalidParameterError("horizon must exceed announce_stage + 2*(b - a)")
    bits = []
    for s in range(horizon):
        if s < announce_stage or s < d:
            bits.append("0")
        else:
            bits.append("1" if bits[s - d] == "0" else "0")
    return "".join(bits)


@dataclass(frozen=True)
class PigeonholeReport:
    """Exhaustive account of the two-member obstruction with candidate pairs
    {0,1} and {0,2}.

    The triple of translates (pair0+s, pair0+(s+1), pair1+s) covers all
    three position pairs of {s, s+1, s+2}, so two colors force one translate
    homogeneous; the naive triple (pair0+s, pair1+s, pair1+(s+1)) admits
    avoiding patterns, which are listed verbatim.
    """

    max_s: int
    forced_triple_holds: bool
    forced_counterexamples: tuple[str, ...]
    naive_counterexamples: tuple[str, ...]

    @property
    def some_member_recurs(self) -> bool:
        # One of the two members has a homogeneous translate at every s,
        # hence at infinitely many s.
        return self.forced_triple_holds


def pigeonhole_check(max_s: int) -> PigeonholeReport:
    """Check every 2-coloring window against both obstruction triples."""
    if max_s < 0:
        raise InvalidParameterError("max_s must be nonnegative")
    forced_bad: set[str] = set()
    naive_bad: set[str] = set()
    for s in range(max_s + 1):
        width = s + 4
        for mask in range(1 << width):
            c = [(mask >> pos) & 1 for pos in range(width)]
            forced = c[s] == c[s + 1] or c[s + 1] == c[s + 2] or c[s] == c[s + 2]
            if not forced:
                forced_bad.add("".join(str(v) for v in c[s : s + 3]))
            naive = c[s] == c[s + 1] or c[s] == c[s + 2] or c[s + 1] == c[s + 3]
            if not naive:
                naive_bad.add("".join(str(v) for v in c[s : s + 4]))
    return PigeonholeReport(
        max_s=max_s,
        forced_triple_holds=not forced_bad,
        forced_counterexamples=tuple(sorted(forced_bad)),
        naive_counterexamples=tuple(sorted(naive_bad)),
    )


def gen_family(
    seed: int,
    count: int,
    stage_count: int,
    mode: str,
    target_sizes: Sequence[int],
    *,
    max_mind_changes: int = 3,
    unstable_members: Sequence[int] = (),
) -> StagedFamily:
    """Deterministic mock enumeration family.

    ``target_sizes[i]`` is the membership size member i is guaranteed to
    reach (and, in sigma2 mode, to hold permanently unless listed in
    ``unstable_members``).  ce mode enumerates elements one way, never
    retracting, at most two new elements per stage; sigma2 mode gives each
    element at most ``max_mind_changes`` membership toggles, all before a
    churn cutoff (a quarter of the stage range, or ``target + 20`` if that
    is larger) for stable members, so their candidate sets settle early in
    the stage range.
    """
    if count < 1 or stage_count < 1:
        raise InvalidParameterError("count and stage_count must be at least 1")
    if len(target_sizes) != count:
        raise InvalidParameterError("need one target size per member")
    if mode not in (MODE_CE, MODE_SIGMA2):
        raise InvalidParameterError(f"unknown family mode {mode!r}")
    unstable = set(unstable_members)

    members: list[tuple[tuple[int, frozenset[int]], ...]] = []
    for i in range(count):
        need = int(target_sizes[i])
        if need < 1:
            raise InvalidParameterError(f"member {i}: target size must be positive")
        span = need + 16
        values: list[int] = []
        seen: set[int] = set()
        t = 0
        while len(values) < need + (0 if mode == MODE_CE else min(6, max(2, need // 8))):
            v = u64(seed, 11, i, t) % span
            t += 1
            if v not in seen:
                seen.add(v)
                values.append(v)

        timeline: dict[int, list[int]] = {}

        def toggle(stage: int, value: int) -> None:
            timeline.setdefault(stage, []).append(value)

        if mode == MODE_CE:
            for jx, v in enumerate(values[:need]):
                entry = max(v + 1, 1 + jx // 2)
                if entry >= stage_count:
                    raise InvalidParameterError(
                        f"member {i}: stage_count {stage_count} too small for "
                        f"target size {need} (entry stage {entry})"
                    )
                toggle(entry, v)
        else:
            cutoff = max(2, stage_count // 4, span + 4)
            if cutoff + span >= stage_count // 2:
                # stabilization plus image clearance must finish before the
                # top half of the stage range
                raise InvalidParameterError(
                    f"member {i}: stage_count {stage_count} leaves no room past "
                    f"churn; raise it to at least {4 * span + 18}"
                )
            core = values[:need]
            for jx, v in enumerate(values):
                entry = v + 1 + u64(seed, 13, i, jx) % (cutoff - 1 - v)
                flips = u64(seed, 17, i, jx) % (max_mind_changes + 1)
                flips = min(flips, max(0, cutoff - entry - 1))
                if jx < need and flips % 2 == 1:
                    # core elements must end (and stay) present
                    flips -= 1
                toggle(entry, v)
                prev = entry
                for fx in range(flips):
                    gap = 1 + u64(seed, 19, i, jx, fx) % max(1, (cutoff - prev - 1) // max(1, flips - fx))
                    stage = prev + gap
                    if stage >= cutoff:
                        break
                    toggle(stage, v)
                    prev = stage
            if i in unstable:
                victim = core[0]
                leave = (stage_count * 3) // 5
                comeback = (stage_count * 4) // 5
                if comeback > leave >= cutoff:
                    toggle(leave, victim)
                    toggle(comeback, victim)

        present: set[int] = set()
        points: list[tuple[int, frozenset[int]]] = []
        for stage in sorted(timeline):
            for v in timeline[stage]:
                if v in present:
                    present.discard(v)
                else:
                    present.add(v)
            points.append((stage, frozenset(present)))
        members.append(tuple(points))
    return StagedFamily(mode, count, stage_count, tuple(members))


def format_family(family: StagedFamily) -> str:
    lines = [f"family {family.mode} {family.count} {family.stage_count}"]
    for i in range(family.count):
        for stage, members in family.changes[i]:
            elems = " ".join(str(x) for x in sorted(members))
            lines.append(f"at {i} {stage} {elems}".rstrip())
    return "\n".join(lines) + "\n"


def parse_family(text: str) -> StagedFamily:
    mode = count = stage_count = None
    per_member: dict[int, list[tuple[int, frozenset[int]]]] = {}
    with RecordReader(text) as records:
        for line in records:
            if line[0] == "#":
                continue
            toks = line.split()
            if toks[0] == "family":
                if mode is not None:
                    raise records.error("repeated family header")
                mode, count, stage_count = toks[1], int(toks[2]), int(toks[3])
                if count < 0:
                    raise records.error(f"member count {count} is negative")
                StagedFamily(mode, 0, stage_count, ())  # checks the mode and stage count
            elif toks[0] == "at":
                i, s = int(toks[1]), int(toks[2])
                members = frozenset(map(int, toks[3:]))
                if count is None:
                    raise records.error("at record before the family header")
                if not 0 <= i < count:
                    raise records.error(f"member {i} outside [0, {count})")
                points = per_member.setdefault(i, [])
                _check_change(mode, stage_count, i, points[-1] if points else None, (s, members))
                points.append((s, members))
            else:
                raise records.error(f"unknown record {toks[0]!r}")
    if mode is None:
        raise ParseError("missing family header")
    changes = tuple(tuple(per_member.get(i, [])) for i in range(count))
    return StagedFamily(mode, count, stage_count, changes)
