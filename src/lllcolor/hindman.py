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

Both builders install the stage bound their construction proves, which
``validate_sparsity`` checks every item against, and their point counts
stay within the sparsity budget it checks.

The warm-up demos live here too: the delayed-alternation coloring that
defeats a single announced difference, and the exhaustive two-member
pigeonhole obstruction.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from collections.abc import Callable, Iterator, Sequence
from fractions import Fraction
from itertools import chain, islice, pairwise, repeat
from operator import itemgetter

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
        self._set(name, pair, growth, mult_bound)


def builtin_addition_like(name: str) -> AdditionLike:
    """The two canonical pair functions: ``sum`` and ``absdiff``."""
    if name == "sum":
        return AdditionLike("sum", lambda x, y: x + y, lambda x, n: n, 1)
    if name == "absdiff":
        return AdditionLike("absdiff", lambda x, y: abs(x - y), lambda x, n: x + n, 2)
    raise InvalidParameterError(f"unknown addition-like function {name!r}")


def _toggle(
    mode: str, stage_count: int, i: int, present: set[int], prev: int, point: tuple
) -> None:
    """Flip toggle ``point``'s elements in ``present``, member i's set before
    it, raising unless the toggle may follow stage ``prev`` (-1 for the
    first) in member i's toggle list."""
    s, elements = point
    if type(s) is not int:
        raise InvalidInputError(f"member {i}: change stage {s!r} is not an int")
    if not 0 <= s < stage_count:
        raise InvalidInputError(f"member {i}: change stage {s} out of range")
    if s <= prev:
        raise InvalidInputError(f"member {i}: change stages must increase")
    last = -1
    for x in elements:
        if type(x) is not int:
            raise InvalidInputError(f"member {i}: element {x!r} at stage {s} is not an int")
        if x in present:
            if mode == MODE_CE:
                raise InvalidInputError(f"member {i}: ce families must grow monotonically")
            present.remove(x)
        elif 0 <= x < s:
            present.add(x)
        else:
            raise StreamIntegrityError(
                f"member {i}: element {x} present at stage {s} violates x < s",
                witness=(i, s, x),
            )
        if x <= last:
            raise InvalidInputError(f"member {i}: toggled elements must increase")
        last = x


class StagedFamily(FrozenRecord):
    """Stagewise approximations of ``count`` enumerated sets.

    ``toggles[i]`` lists member i's (stage, elements) toggles in increasing
    stage: ``elements``, increasing, are the values whose membership flips
    at that stage, and between toggles membership is constant.  An element
    enters only at a stage past it (x < stage); ce mode never removes one.
    """

    __slots__ = _fields = ("mode", "count", "stage_count", "toggles")

    def __init__(
        self,
        mode: str,
        count: int,
        stage_count: int,
        toggles: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...],
    ):
        if mode not in (MODE_CE, MODE_SIGMA2):
            raise InvalidParameterError(f"unknown family mode {mode!r}")
        if type(count) is not int:
            raise InvalidInputError(f"member count {count!r} is not an int")
        if count != len(toggles):
            raise InvalidInputError("one change list per member required")
        if type(stage_count) is not int:
            raise InvalidParameterError(f"stage_count {stage_count!r} is not an int")
        if stage_count < 1:
            raise InvalidParameterError("stage_count must be at least 1")
        canon = []
        for i, points in enumerate(toggles):
            pts = tuple((s, tuple(xs)) for s, xs in points)
            present: set[int] = set()
            for (prev, _), point in zip(((-1, ()), *pts), pts):
                _toggle(mode, stage_count, i, present, prev, point)
            canon.append(pts)
        self._set(mode, count, stage_count, tuple(canon))

    def member_at(self, i: int, s: int) -> frozenset[int]:
        if not 0 <= i < self.count:
            raise InvalidParameterError(f"member {i} out of range")
        if not 0 <= s < self.stage_count:
            raise InvalidParameterError(f"stage {s} out of range")
        present: set[int] = set()
        for stage, elements in self.toggles[i]:
            if stage > s:
                break
            present.symmetric_difference_update(elements)
        return frozenset(present)


def _selections(family: StagedFamily, i: int, k: int) -> list[tuple[int, tuple[int, ...]]]:
    """Member i's selection where it changes: ``(stage, selection)`` pairs in
    increasing stage, starting with ``(0, ())``; each selection, an
    increasing tuple, holds from its stage up to the next pair's.

    The selection keeps the k longest-tenured present elements (none while
    fewer are present), ordering by (tenure start, value); tenure resets
    when an element leaves and re-enters.  A ce member's elements never
    leave, so its selection, once made, never changes.
    """
    changes: list[tuple[int, tuple[int, ...]]] = [(0, ())]
    # the present elements, keyed in (tenure start, value) order: an element
    # that enters goes last, and one toggle's elements increase
    present: dict[int, None] = {}
    for s, flipped in family.toggles[i]:
        for x in flipped:
            if x in present:
                del present[x]
            else:
                present[x] = None
        chosen = tuple(sorted(islice(present, k))) if len(present) >= k else ()
        if chosen != changes[-1][1]:
            changes.append((s, chosen))
    return changes


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
    as that base's id and a shift.  A point n = x + s fixes s for each of
    the m elements x, so at most m translates of size m pass through it.

    The stage bound is ``s <= n``: a translate emitted at stage s has the
    first position ``s + min(E) >= s``.
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
    # made[i]: member i's last (stage, selection) pair; a nonempty selection
    # is the member's base, made at that stage and never changed after it
    made = [_selections(family, i, M + i)[-1] for i in range(count)]

    bases: list[tuple[int, ...]] = []
    # base_id[i]: the id of member i's base, numbered in order of first use
    base_id: dict[int, int] = {}
    base_ids: list[int] = []
    shifts: list[int] = []
    # each item's member and stage: the stream's provenance columns
    by, at = array("q"), array("q")
    # Bases of different members differ in size and the shifts of one base
    # are distinct, so every translate is new.
    for i, s in _diagonal_pairs(count, stages):
        s0, elements = made[i]
        if not elements or s < s0:
            continue
        if i not in base_id:
            base_id[i] = len(bases)
            bases.append(tuple(map(elements[0].__rsub__, elements)))
        base_ids.append(base_id[i])
        shifts.append(s + elements[0])
        by.append(i)
        at.append(s)

    return ConstraintStream(M, q, bases, base_ids, shifts, by, at, _translate_bound)


def _translate_bound(i: int, n: int, s: int) -> bool:
    """The translate builder's stage bound: no item from stage s starts below s."""
    return s <= n


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
    items of size m.

    Each item is stored once, as the id of its base (the image minus its
    least value, held once in a table) and its least value as the shift.
    An image whose values, taken over the increasing selection, are the
    member's last emitted image's moved by one constant has that image's
    base, so only images of a new shape are sorted and looked up in the
    table.

    The stage bound: member i emits at stage s an image whose least value
    is p only if ``s <= p``, or ``p`` is a stage and ``growth(x, p) >= s``
    for some x in member i's selection at stage p.  Proof: say s > p.  The
    freshness gate gives ``s0 < p < s``, and the selection is E from s0
    through s, so member i's selection at stage p is the item's own E.  If
    every ``growth(x, p)`` were below s, then every ``pair(x, s)`` would
    exceed p, which contradicts ``min F = p``.  The bound keeps only each
    member's selection change points; it finds the selection at stage p by
    bisection and reads it largest element first, where the builtin growth
    witnesses peak, so it stops at its first value for them.  ``growth`` is
    an arbitrary callable, so nothing else about it is assumed.
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
    count, stage_count = family.count, family.stage_count

    # selections[i]: member i's selection change points, all the stage
    # bound keeps
    selections: list[list[tuple[int, tuple[int, ...]]]] = []
    # (i + s, s, i, base key, shift): sorting gives the diagonal pairing
    # order, and (i + s, s) is unique, so nothing after it is compared
    emitted: list[tuple[int, int, int, int, int]] = []
    # key[base]: a key per distinct image base, in order of computation
    key: dict[tuple[int, ...], int] = {}
    for i in range(count):
        changes = _selections(family, i, b * (M + i))
        selections.append(changes)
        # run: the largest image value over the stages so far; prior: run
        # before s0, the stage where the current selection began
        run: int | None = None
        prior: int | None = None
        # the last emitted image's values, least value and base key
        last: list[int] = []
        last_lo = last_k = 0
        for (s0, selection), (s1, _) in pairwise(chain(changes, [(stage_count, ())])):
            prior = run
            if not selection:
                continue
            for s in range(s0, s1):
                values = list(map(fn.pair, selection, repeat(s)))
                lo = min(values)
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
    emitted.sort()

    bases = list(key)
    # base_id[k]: the id of the base with key k, numbered in order of first use
    base_id: dict[int, int] = {}
    base_ids: list[int] = []
    shifts: list[int] = []
    # each item's member and stage: the stream's provenance columns
    by, at = array("q"), array("q")
    # the (base key, shift) of every item so far: an item two members emit
    # is listed once, with its first emission's provenance
    seen: set[tuple[int, int]] = set()
    for _, s, i, k, shift in emitted:
        base = bases[k]
        if len(base) < M + i:
            raise StreamIntegrityError(
                f"image of member {i} at stage {s} has {len(base)} values; "
                f"multiplicity bound {b} promises at least {M + i}",
                witness=(i, s),
            )
        if (k, shift) not in seen:
            seen.add((k, shift))
            base_ids.append(base_id.setdefault(k, len(base_id)))
            shifts.append(shift)
            by.append(i)
            at.append(s)

    def stage_bound(i: int, n: int, s: int) -> bool:
        if s <= n or n >= stage_count:
            return s <= n
        changes = selections[i]
        _, selection = changes[bisect_right(changes, n, key=itemgetter(0)) - 1]
        return any(g >= s for g in map(fn.growth, reversed(selection), repeat(n)))

    return ConstraintStream(
        M, q, [bases[k] for k in base_id], base_ids, shifts, by, at, stage_bound
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
        self._set(max_s, forced_triple_holds, forced_counterexamples, naive_counterexamples)

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

    members: list[tuple[tuple[int, tuple[int, ...]], ...]] = []
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

        # timeline[stage]: the values that flip there; two flips at one stage cancel
        timeline: dict[int, set[int]] = {}

        def toggle(stage: int, value: int) -> None:
            timeline.setdefault(stage, set()).symmetric_difference_update((value,))

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

        members.append(tuple((stage, tuple(sorted(timeline[stage]))) for stage in sorted(timeline)))
    return StagedFamily(mode, count, stage_count, tuple(members))


def format_family(family: StagedFamily) -> str:
    lines = [f"family {family.mode} {family.count} {family.stage_count}"]
    for i, points in enumerate(family.toggles):
        present: set[int] = set()
        for stage, elements in points:
            present.symmetric_difference_update(elements)
            lines.append(f"at {i} {stage} {' '.join(map(str, sorted(present)))}".rstrip())
    return "\n".join(lines) + "\n"


def parse_family(text: str) -> StagedFamily:
    mode = count = stage_count = None
    # per_member[i]: member i's set after its last toggle, and its toggles
    per_member: dict[int, tuple[set[int], list[tuple[int, tuple[int, ...]]]]] = {}
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
                members = set(map(int, toks[3:]))
                if count is None:
                    raise records.error("at record before the family header")
                if not 0 <= i < count:
                    raise records.error(f"member {i} outside [0, {count})")
                present, points = per_member.setdefault(i, (set(), []))
                point = (s, tuple(sorted(members.symmetric_difference(present))))
                _toggle(mode, stage_count, i, present, points[-1][0] if points else -1, point)
                points.append(point)
            else:
                raise records.error(f"unknown record {toks[0]!r}")
    if mode is None:
        raise ParseError("missing family header")
    toggles = tuple(tuple(per_member[i][1]) if i in per_member else () for i in range(count))
    return StagedFamily(mode, count, stage_count, toggles)
