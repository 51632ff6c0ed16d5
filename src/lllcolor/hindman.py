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
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterator, Sequence
from fractions import Fraction
from itertools import pairwise, repeat

from .errors import (
    InvalidInputError,
    InvalidParameterError,
    ParseError,
    RecordReader,
    StreamIntegrityError,
)
from .records import FrozenRecord
from .rng import u64, u64_from
from .streams import ConstraintStream

MODE_CE = "ce"
MODE_SIGMA2 = "sigma2"


class AdditionLike(FrozenRecord):
    """A symmetric pair function with a growth witness and a uniform
    multiplicity bound.

    ``pair(x, y)`` is defined for x != y and symmetric; ``y > growth(x, n)``
    implies ``pair(x, y) > n``; for fixed x at most ``mult_bound`` values z
    share any one value ``pair(x, z)``.
    """

    __slots__ = _fields = ("name", "pair", "growth", "mult_bound")

    def __init__(
        self,
        name: str,
        pair: Callable[[int, int], int],
        growth: Callable[[int, int], int],
        mult_bound: int,
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "growth", growth)
        object.__setattr__(self, "mult_bound", mult_bound)


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


class StagedFamily(FrozenRecord):
    """Stagewise approximations of ``count`` enumerated sets.

    ``changes[i]`` lists (stage, full set) change points; between change
    points membership is constant.  Every element obeys the convention
    x < stage at the stage it appears.  ce mode additionally requires
    monotone growth.
    """

    __slots__ = _fields = ("mode", "count", "stage_count", "changes")

    def __init__(
        self,
        mode: str,
        count: int,
        stage_count: int,
        changes: tuple[tuple[tuple[int, frozenset[int]], ...], ...],
    ):
        if mode not in (MODE_CE, MODE_SIGMA2):
            raise InvalidParameterError(f"unknown family mode {mode!r}")
        if count != len(changes):
            raise InvalidInputError("one change list per member required")
        if stage_count < 1:
            raise InvalidParameterError("stage_count must be at least 1")
        canon = []
        for i, points in enumerate(changes):
            pts = tuple((int(s), frozenset(p)) for s, p in points)
            prev = None
            for point in pts:
                _check_change(mode, stage_count, i, prev, point)
                prev = point
            canon.append(pts)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "stage_count", stage_count)
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
    ``ids[i][s - defined]`` in that member's array of item ids.
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
    # each item's member and stage: the stream's provenance columns
    by, at = array("q"), array("q")
    # ids[i]: member i's item ids, in increasing shift
    ids = [array("q") for _ in range(count)]
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
        base_ids.append(base_id[i])
        shifts.append(s + elements[0])
        by.append(i)
        at.append(s)

    def locality(m: int, n: int) -> tuple[int, ...]:
        i = m - M
        if i < 0 or i >= count or base[i] is None:
            return ()
        elements, defined = base[i]
        member_ids = ids[i]
        # x holds n when its shift n - x lies in [defined, stages), and that
        # shift's id sits at n - defined - x; the largest x gives the least
        # shift, and so the least id
        lo, hi = n - stages, n - defined
        return tuple(member_ids[hi - x] for x in reversed(elements) if lo < x <= hi)

    return ConstraintStream.from_bases(M, q, bases, base_ids, shifts, zip(by, at), locality)


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
    An image whose values, in selection order, are the member's last
    emitted image's moved by one constant has that image's base, so only
    images of a new shape are sorted and looked up in the table.
    The oracle keeps, per image size, member and base, the shifts the
    member emitted with that base, each with its item id and the least
    stage that emitted it, cut into maximal runs ``[a, z]`` of consecutive
    shifts whose stages never fall.  The holders of n in a run are the
    offsets x of the base with ``n - z <= x <= n - a``, found by two
    bisects.  Images that are not translates of one base give more bases
    and shorter runs, not a different answer.  A query drops the holders
    past the stage bound, computed from the member's selection at stage
    n; in a run they are the last shifts, found by a bisect of its
    stages.  ``growth`` is an arbitrary callable, so nothing about it is
    cached or assumed monotone; a query scans its values and stops at the
    first that reaches the latest stage of the member's holders of n, as
    then none can be dropped.  Only an item that two members emit can be
    found twice, so a query dedupes its holders only when two or more
    members hold the size.
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
    for i in range(count):
        timeline = _selection_timeline(family, i, b * (M + i))
        ordered = {e: tuple(sorted(e, reverse=True)) for e, _ in dict.fromkeys(timeline)}
        selections.append([ordered[e] for e, _ in timeline])
        # running_max[s]: the largest image value over stages up to s
        running_max: list[int | None] = []
        run: int | None = None
        # the last emitted image's values, least value and base key
        last: list[int] = []
        last_lo = last_k = 0
        for s, (selection, s0) in enumerate(timeline):
            if selection:
                values = list(map(fn.pair, selection, repeat(s)))
                lo = min(values)
                prior = running_max[s0 - 1] if s0 > 0 else None
                if lo > s0 and (prior is None or lo > prior):
                    # values equal to the last image's moved by a constant
                    # have its base
                    if values != list(map((lo - last_lo).__add__, last)):
                        base = tuple(map(lo.__rsub__, sorted(set(values))))
                        last_k = key.setdefault(base, len(key))
                    last, last_lo = values, lo
                    emitted.append((i + s, s, i, last_k, lo))
                peak = max(values)
                run = peak if run is None else max(run, peak)
            running_max.append(run)
    emitted.sort()

    bases = list(key)
    # base_id[k]: the id of the base with key k, numbered in order of first use
    base_id: dict[int, int] = {}
    base_ids: list[int] = []
    shifts: list[int] = []
    # each item's member and stage: the stream's provenance columns
    by, at = array("q"), array("q")
    # seen[(k, shift)]: the id of the item with base key k and that shift
    seen: dict[tuple[int, int], int] = {}
    # shifts_of[(k, i)][shift]: the id of the item with base key k and that
    # shift, and the least stage at which member i emitted it
    shifts_of: dict[tuple[int, int], dict[int, tuple[int, int]]] = {}
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
            by.append(i)
            at.append(s)
        # a member's stages come in increasing order, so the first is least
        shifts_of.setdefault((k, i), {}).setdefault(shift, (j, s))

    # runs[m][i]: member i's runs with a base of size m, each as
    # (a, z, base, ids, stages): a maximal run [a, z] of consecutive shifts
    # whose stages never fall, where ids[t] and stages[t] belong to shift
    # a + t
    runs: dict[int, dict[int, list[tuple]]] = {}
    for (k, i), by_shift in shifts_of.items():
        base = bases[k]
        order = sorted(by_shift)
        # a run ends where the next shift skips a value or has an earlier stage
        ends = [
            r for r, (u, v) in enumerate(pairwise(order), 1)
            if v > u + 1 or by_shift[v][1] < by_shift[u][1]
        ]
        for start, stop in zip([0, *ends], [*ends, len(order)]):
            ids, stages = zip(*map(by_shift.__getitem__, order[start:stop]))
            runs.setdefault(len(base), {}).setdefault(i, []).append(
                (order[start], order[stop - 1], base, ids, stages)
            )
    # freed before the stream interns its positions
    del shifts_of

    def locality(m: int, n: int) -> tuple[int, ...]:
        found: list[int] = []
        members = runs.get(m, {})
        for i, member in members.items():
            # (n - a, first, end, base, ids, stages) for each of member i's
            # runs that holds n: x in base[first:end] holds n at t = n - a - x
            held = []
            last = 0
            for a, z, base, ids, stages in member:
                first = bisect_left(base, n - z)
                end = bisect_right(base, n - a, first)
                if first < end:
                    held.append((n - a, first, end, base, ids, stages))
                    # the least x gives the largest t, and so the run's
                    # latest stage among its holders
                    last = max(last, stages[n - a - base[first]])
            if not held:
                continue
            # the bound drops a holder only if n and every growth value fall
            # short of the latest stage of a holder, and then it lies inside
            # the stages
            if n < last:
                cut = n
                for g in map(fn.growth, selections[i][n], repeat(n)):
                    if g >= last:
                        break
                    cut = max(cut, g)
                else:
                    # a run's stages up to cut come first: keep the holders
                    # whose t is below their count
                    held = [
                        (na, bisect_left(base, na + 1 - bisect_right(stages, cut), first), end,
                         base, ids, stages)
                        for na, first, end, base, ids, stages in held
                    ]
            for na, first, end, base, ids, _ in held:
                found += map(ids.__getitem__, map(na.__sub__, base[first:end]))
        # one member's holders are distinct; two members may emit one item
        if len(members) == 1:
            return tuple(sorted(found))
        return tuple(sorted(set(found)))

    return ConstraintStream.from_bases(
        M, q, [bases[k] for k in base_id], base_ids, shifts, zip(by, at), locality
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


class PigeonholeReport(FrozenRecord):
    """Exhaustive account of the two-member obstruction with candidate pairs
    {0,1} and {0,2}.

    The triple of translates (pair0+s, pair0+(s+1), pair1+s) covers all
    three position pairs of {s, s+1, s+2}, so two colors force one translate
    homogeneous; the naive triple (pair0+s, pair1+s, pair1+(s+1)) admits
    avoiding patterns, which are listed verbatim.
    """

    __slots__ = _fields = (
        "max_s", "forced_triple_holds", "forced_counterexamples", "naive_counterexamples"
    )

    def __init__(
        self,
        max_s: int,
        forced_triple_holds: bool,
        forced_counterexamples: tuple[str, ...],
        naive_counterexamples: tuple[str, ...],
    ):
        object.__setattr__(self, "max_s", max_s)
        object.__setattr__(self, "forced_triple_holds", forced_triple_holds)
        object.__setattr__(self, "forced_counterexamples", forced_counterexamples)
        object.__setattr__(self, "naive_counterexamples", naive_counterexamples)

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

    Every draw hashes a key ``(seed, tag, i, ...)``; the fixed prefix of a
    member's keys, and of an element's toggle keys, is folded once and each
    draw finished from it with ``u64_from``, which gives the words of the
    whole keys.
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
        key11 = u64(seed, 11, i)
        while len(values) < need + (0 if mode == MODE_CE else min(6, max(2, need // 8))):
            v = u64_from(key11, t) % span
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
            key13, key17, key19 = u64(seed, 13, i), u64(seed, 17, i), u64(seed, 19, i)
            for jx, v in enumerate(values):
                entry = v + 1 + u64_from(key13, jx) % (cutoff - 1 - v)
                flips = u64_from(key17, jx) % (max_mind_changes + 1)
                flips = min(flips, max(0, cutoff - entry - 1))
                if jx < need and flips % 2 == 1:
                    # core elements must end (and stay) present
                    flips -= 1
                toggle(entry, v)
                prev = entry
                key19jx = u64_from(key19, jx)
                for fx in range(flips):
                    gap = 1 + u64_from(key19jx, fx) % max(1, (cutoff - prev - 1) // max(1, flips - fx))
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
