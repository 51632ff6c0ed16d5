"""Constraint streams: indexable families of finite sets with a
point-locality oracle, plus the sparsity validation they must pass before
coloring.

The sparsity hypothesis is that at most ``2**(q*m)`` constraints of size
``m`` pass through any single position, for all ``m >= M``.  That bound is
checked exactly: ``count <= 2**(q*m)`` with ``q = a/d`` is decided as
``count**d <= 2**(a*m)`` in integer arithmetic.
"""

from __future__ import annotations

import hashlib
import math
import operator
import sys
from array import array
from bisect import bisect_left
from collections import Counter
from collections.abc import Callable, Iterable
from fractions import Fraction
from itertools import compress, groupby, islice
from operator import itemgetter

from .errors import (
    InvalidInputError,
    InvalidParameterError,
    ParseError,
    RecordReader,
    StreamIntegrityError,
)
from .lll import frac_str
from .records import FrozenRecord, Record
from .rng import u64

# validate_sparsity checks up to this many nonzero cells, else samples per size
_FULL_CHECK_CELLS = 20000
_SAMPLE_PER_SIZE = 12
# point counts are packed as unsigned 8-byte coefficients of one big int
_COUNT_TYPE = "Q"
_COUNT_WIDTH = array(_COUNT_TYPE).itemsize
# the block writers hand out their text this many lines at a time
_BLOCK_LINES = 2048


class _Positions(dict):
    """One call's table of distinct positions: the first lookup of a key
    stores ``convert(key)``, and every later lookup returns that object.
    Each caller makes its own and drops it on return, so a parsed or built
    stream holds one object per distinct position and nothing outlives the
    call."""

    __slots__ = ("_convert",)

    def __init__(self, convert):
        super().__init__()
        self._convert = convert

    def __missing__(self, key):
        value = self[key] = self._convert(key)
        return value


class ConstraintStream(Record):
    """A finite, indexable family of finite sets with a locality oracle.

    Each item is a shift of a base.  ``bases`` holds each distinct base
    once, in order of first use: a tuple of strictly increasing ints that
    starts at 0 and is at least ``M`` long.  Item j is base
    ``bases[base_ids[j]]`` moved by the nonnegative int ``shifts[j]``, so
    its domain ``dom(j)`` is ``shifts[j] + x`` for each x in the base, and
    its first position is the shift.  Equal offsets and shifts share one
    int object.

    ``ConstraintStream(M, q, items, provenance, locality_fn)`` takes the
    items themselves: a tuple of tuples of strictly increasing nonnegative
    ints, each at least ``M`` long, which it splits into base and shift and
    interns.  It sorts nothing and refuses any other item, with its index
    as the witness.  The builders hand over the base table and each item's
    base id and shift through :meth:`from_bases` instead; either way the
    same items give an equal stream and the same manifest, which
    :func:`write_manifest` writes out.  ``items`` derives every domain at
    once, for tests; no pipeline stage reads it.

    ``provenance``, when given, yields one ``(member, stage)`` pair of
    nonnegative ints per item; the builders hand over their two columns
    zipped.  Either door copies the pairs into two ``array("q")`` columns,
    ``emitted_by`` and ``emitted_at``, and refuses any other entry with
    its index.  The ``provenance`` property derives the pairs on each read.

    A set is met when its domain receives both colors, and
    :meth:`is_violated` is the one check of whether the bits on a head of
    the domain still carry a single color.

    ``locality(m, n)`` lists exactly the indices whose item has size ``m``
    and touches position ``n``.  It asks the procedural oracle a builder
    installs as ``locality_fn``, which :func:`validate_sparsity`
    cross-checks against the enumeration; a stream without one (generated,
    parsed or built by hand) raises ``InvalidInputError`` instead of
    answering from its own items.

    Two streams are equal when their fields other than the oracle and the
    cached fingerprint ``_fp`` are; neither shows in the repr.
    """

    _fields = ("M", "q", "bases", "base_ids", "shifts", "emitted_by", "emitted_at")
    __slots__ = (*_fields, "locality_fn", "_fp")

    def __init__(self, M: int, q, items: tuple, provenance=None, locality_fn=None):
        q = _checked_q(M, q)
        # a list could change after the check
        if type(items) is not tuple:
            raise InvalidInputError(f"items must be a tuple, got {type(items).__name__}")
        # write_manifest writes the text of the first position of each value,
        # so every distinct position must be an int: a bool or a float there
        # would reach the manifest as a token the parser refuses
        if not set(map(type, set().union(*items))) <= {int}:
            j, n = next((j, n) for j, dom in enumerate(items) for n in dom if type(n) is not int)
            raise InvalidInputError(f"item {j}: position {n!r} is not an int")
        # table: each distinct base and its id, in order of first use
        table: dict[tuple[int, ...], int] = {}
        base_ids = []
        for j, dom in enumerate(items):
            if not is_canonical(dom, M):
                raise StreamIntegrityError(
                    f"item {j}: {dom!r} is not a tuple of at least {M} increasing "
                    "nonnegative positions", witness=(j,)
                )
            base = tuple(map(dom[0].__rsub__, dom))
            base_ids.append(table.setdefault(base, len(table)))
        shifts = [dom[0] for dom in items]
        self._place(M, q, tuple(table), base_ids, shifts, provenance, locality_fn)

    @classmethod
    def from_bases(
        cls, M: int, q, bases, base_ids, shifts, provenance=None, locality_fn=None
    ) -> ConstraintStream:
        """The stream whose item j is ``bases[base_ids[j]]`` moved by
        ``shifts[j]``, with base ids in order of first use."""
        stream = cls.__new__(cls)
        q = _checked_q(M, q)
        stream._place(M, q, tuple(bases), base_ids, shifts, provenance, locality_fn)
        return stream

    def _place(self, M, q, bases, base_ids, shifts, provenance, locality_fn) -> None:
        """Check each base and each shift once, intern them and store them
        with the checked ``q``."""
        base_ids = tuple(base_ids)
        for k, base in enumerate(bases):
            if not (is_canonical(base, M) and base[0] == 0 and set(map(type, base)) <= {int}):
                raise StreamIntegrityError(
                    f"base {k}: {base!r} is not a tuple of at least {M} increasing "
                    "int positions from 0", witness=(k,)
                )
        if len(set(bases)) != len(bases):
            raise StreamIntegrityError("the base table holds a base twice")
        if list(dict.fromkeys(base_ids)) != list(range(len(bases))) or not set(
            map(type, base_ids)
        ) <= {int}:
            raise StreamIntegrityError("base ids must number the bases in order of first use")
        if not set(map(type, shifts)) <= {int} or min(shifts, default=0) < 0:
            j, s = next((j, s) for j, s in enumerate(shifts) if type(s) is not int or s < 0)
            raise StreamIntegrityError(
                f"item {j}: shift {s!r} is not a nonnegative int", witness=(j,)
            )
        # one int object per distinct value, offset or shift
        position = _Positions(int).__getitem__
        bases = tuple(tuple(map(position, base)) for base in bases)
        shifts = tuple(map(position, shifts))
        if len(shifts) != len(base_ids):
            raise InvalidInputError("one shift per base id required")
        emitted_by = emitted_at = None
        if provenance is not None:
            emitted_by, emitted_at = _provenance_columns(provenance)
            if len(emitted_by) != len(shifts):
                raise InvalidInputError("provenance length must match item count")
        self.M, self.q = M, q
        self.bases, self.base_ids, self.shifts = bases, base_ids, shifts
        self.emitted_by, self.emitted_at = emitted_by, emitted_at
        self.locality_fn, self._fp = locality_fn, None

    def __len__(self) -> int:
        return len(self.shifts)

    def base_shift(self, j: int) -> tuple[tuple[int, ...], int]:
        """Item j's base and shift."""
        return self.bases[self.base_ids[j]], self.shifts[j]

    def dom(self, j: int) -> tuple[int, ...]:
        base, shift = self.base_shift(j)
        return tuple(map(shift.__add__, base))

    @property
    def items(self) -> tuple[tuple[int, ...], ...]:
        """Every item's domain, derived anew on each read."""
        return tuple(map(self.dom, range(len(self))))

    @property
    def provenance(self) -> tuple[tuple[int, int], ...] | None:
        """Every item's ``(member, stage)`` pair, derived anew on each read,
        or None for a stream without provenance."""
        if self.emitted_by is None:
            return None
        return tuple(zip(self.emitted_by, self.emitted_at))

    def locality(self, m: int, n: int) -> tuple[int, ...]:
        if self.locality_fn is None:
            raise InvalidInputError("the stream has no locality oracle")
        return self.locality_fn(m, n)

    def is_violated(self, j: int, bits, cut: int | None = None) -> bool:
        """True iff the first ``cut`` positions of ``dom(j)`` (all of them
        when ``cut`` is None) carry a single color in ``bits``, a str, bytes
        or bytearray of 0/1 by position.  An empty head has one color."""
        return single_color(self.bases[self.base_ids[j]][:cut], bits, self.shifts[j])

    def fingerprint(self) -> str:
        """First 16 hex digits of the sha256 of the manifest text the stream
        was parsed from, or else of the one :func:`write_manifest` writes."""
        if self._fp is None:
            # hashed block by block; the text is kept nowhere
            write_manifest(self, len)
        return self._fp


def _provenance_columns(provenance) -> tuple[array, array]:
    """Each item's member and stage, read pair by pair from ``provenance``
    into two ``array("q")`` columns.  A pair the manifest could not write
    as a ``# by`` line the parser reads back is refused with its index."""
    members, stages = array("q"), array("q")
    for j, pair in enumerate(provenance):
        if not (
            type(pair) is tuple and len(pair) == 2 and type(pair[0]) is type(pair[1]) is int
            and 0 <= pair[0] < 2**63 and 0 <= pair[1] < 2**63
        ):
            raise InvalidInputError(
                f"item {j}: provenance {pair!r} is not a pair of nonnegative ints"
            )
        members.append(pair[0])
        stages.append(pair[1])
    return members, stages


def _checked_q(M: int, q) -> Fraction:
    """``q`` as a Fraction, once ``M`` and ``q`` are checked as a stream's."""
    if M < 1:
        raise InvalidParameterError("M must be at least 1")
    q = Fraction(q)
    if not 0 < q < 1:
        raise InvalidParameterError(f"q must lie in (0, 1), got {q}")
    return q


def is_canonical(dom, M: int) -> bool:
    """The stream constructor's item check: True iff ``dom`` is a tuple of at
    least ``M`` strictly increasing nonnegative positions."""
    return type(dom) is tuple and len(dom) >= M and all(map(operator.lt, (-1, *dom), dom))


def single_color(head, bits, shift: int = 0) -> bool:
    """True iff the positions ``shift + x`` for x in ``head`` carry a single
    color in ``bits``; an empty head has one color."""
    if head:
        first = bits[shift + head[0]]
        for x in head:
            if bits[shift + x] != first:
                return False
    return True


def _gather(offsets: tuple[int, ...]) -> Callable:
    """``seq -> tuple(seq[x] for x in offsets)``, looped in C; a bare
    ``itemgetter`` of one offset returns the item, not a 1-tuple."""
    if len(offsets) == 1:
        (x,) = offsets
        return lambda seq: (seq[x],)
    return itemgetter(*offsets)


def _int_nth_root(x: int, d: int) -> int:
    """Largest r with r**d <= x, exact for arbitrarily large x."""
    if x < 0 or d < 1:
        raise InvalidParameterError("nth root needs x >= 0 and d >= 1")
    if d == 1 or x < 2:
        return x
    if d == 2:
        return math.isqrt(x)
    r = 1 << -(-x.bit_length() // d)
    while True:
        nr = ((d - 1) * r + x // r ** (d - 1)) // d
        if nr >= r:
            break
        r = nr
    while r**d > x:
        r -= 1
    while (r + 1) ** d <= x:
        r += 1
    return r


def point_bound(q: Fraction, m: int) -> int:
    """Largest integer count with ``count <= 2**(q*m)``, decided exactly."""
    q = Fraction(q)
    return _int_nth_root(1 << (q.numerator * m), q.denominator)


class SparsityReport(Record):
    """Outcome of a sparsity sweep: exact per-point counts per size, the
    cells violating or approaching the bound, and how much of the locality
    oracle was cross-checked against the enumeration."""

    __slots__ = _fields = (
        "window", "M", "q", "counts", "violations", "near", "cross_check",
        "cells_checked", "max_size_seen", "items_in_window",
    )

    def __init__(
        self,
        window: int,
        M: int,
        q: Fraction,
        counts: dict[int, list[int]],
        violations: tuple[tuple[int, int, int, int], ...],
        near: tuple[tuple[int, int, int, int], ...],
        cross_check: str,
        cells_checked: int,
        max_size_seen: int,
        items_in_window: int,
    ):
        self.window, self.M, self.q, self.counts = window, M, q, counts
        self.violations, self.near, self.cross_check = violations, near, cross_check
        self.cells_checked, self.max_size_seen = cells_checked, max_size_seen
        self.items_in_window = items_in_window

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary_json(self) -> str:
        import json

        payload = {
            "ok": self.ok,
            "window": self.window,
            "M": self.M,
            "q": frac_str(self.q),
            "items_in_window": self.items_in_window,
            "max_size_seen": self.max_size_seen,
            "violations": [list(v) for v in self.violations],
            "near_bound": [list(v) for v in self.near],
            "cross_check": self.cross_check,
            "cells_checked": self.cells_checked,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _chosen_cells(
    counts: dict[int, list[int]], nonzero: dict[int, list[int]], window: int, mode: str
) -> list[tuple[int, int]]:
    cells: list[tuple[int, int]] = []
    for m in sorted(counts):
        arr = counts[m]
        hits = nonzero[m]
        if mode == "full":
            cells.extend((m, n) for n in hits)
        else:
            picks = {hits[0], hits[-1], max(hits, key=lambda n: (arr[n], -n))}
            stride = max(1, len(hits) // _SAMPLE_PER_SIZE)
            picks.update(hits[::stride][:_SAMPLE_PER_SIZE])
            cells.extend((m, n) for n in sorted(picks))
        for probe in (0, window // 2, window - 1):
            # every cell past the end of arr counts zero
            if probe >= len(arr) or arr[probe] == 0:
                cells.append((m, probe))
    return sorted(set(cells))


def _point_counts(shapes, window: int) -> array:
    """For each position n below ``window``, the number of pairs (s, x)
    with ``s + x == n``, over every ``(base, shifts)`` in ``shapes``: the
    point counts of the items each base makes with its shifts.  Positions
    at or past the window are cut off, as if each item that straddles it
    were sliced there.

    A base with as many items as the positions up to its last one counts
    them at once: its shifts and its offsets are packed as polynomials in
    ``z = 2**64``, one coefficient per position, and their product holds
    its counts as coefficients, exact while each stays below ``2**64``,
    which no count of items reaches.  The product costs about as many
    machine words as positions it spans; counting one by one costs a dict
    update per item and offset.  A base whose items times offsets fall
    short of its span is counted one by one: timed over bases of 8 to 40
    offsets, the two costs meet where that ratio is 0.2 to 1, so either
    side of the threshold stays within about 2x of the faster way.  The
    pipeline's translates and images take the product; a stream of
    unrelated sets, each its own base, counts one by one."""
    width = _COUNT_WIDTH
    total = top = 0
    one_by_one: Counter[int] = Counter()
    for base, shifts in shapes:
        by_shift = Counter(shifts)
        end = max(by_shift) + base[-1] + 1
        top = max(top, end)
        if len(by_shift) * len(base) < end:
            for s, c in by_shift.items():
                for n in map(s.__add__, base):
                    one_by_one[n] += c
            continue
        moved = bytearray(width * max(by_shift) + width)
        for s, c in by_shift.items():
            moved[width * s : width * (s + 1)] = c.to_bytes(width, "little")
        shape = bytearray(width * (base[-1] + 1))
        for x in base:
            shape[width * x] = 1
        total += int.from_bytes(moved, "little") * int.from_bytes(shape, "little")
    counts = array(_COUNT_TYPE, total.to_bytes(width * top, "little"))
    if sys.byteorder == "big":
        # the array reads its items in the machine's byte order
        counts.byteswap()
    for n, c in one_by_one.items():
        counts[n] += c
    del counts[window:]
    return counts


def validate_sparsity(stream: ConstraintStream, window: int) -> SparsityReport:
    """Check the point bound ``count <= 2**(q*m)`` over the window and
    cross-check the stream's locality oracle against the enumeration.

    Counts come from every enumerated item, through its base and shift, so
    the bound check is complete for every cell with ``m <= window`` and
    ``n < window``.
    ``counts[m]`` covers ``[0, len(counts[m]))``, up to the last position
    an item of size m touches; every cell beyond it is zero, so the
    report's size follows the stream, not the window.
    The locality cross-check runs on every nonzero cell up to 20 000 of them
    ("full"), else on a deterministic stratified sample of 12 per size
    ("sampled"), plus zero-count probes either way.  It checks one size at
    a time, against the items the enumeration lists for that size's chosen
    cells, and any disagreement raises ``StreamIntegrityError`` with a
    ``(j, m, n)`` witness.  A stream without an oracle has nothing to
    cross-check: the report says "none", with no cell checked, and its
    counts and verdicts are the same.
    """
    if window < 1:
        raise InvalidParameterError("window must be at least 1")
    bases, shifts = stream.bases, stream.shifts
    # groups[m][b]: the ids of the items with base b, of size m, that fit
    # the window and start inside it
    groups: dict[int, dict[int, list[int]]] = {}
    sizes = list(map(len, bases))
    for j, (b, shift) in enumerate(zip(stream.base_ids, shifts)):
        if sizes[b] <= window and shift < window:
            groups.setdefault(sizes[b], {}).setdefault(b, []).append(j)
    # positions[n] is n: every size's cells share one int per position
    positions: list[int] = []
    counts: dict[int, list[int]] = {}
    nonzero: dict[int, list[int]] = {}
    for m, by_base in groups.items():
        arr = _point_counts(
            [(bases[b], map(shifts.__getitem__, ids)) for b, ids in by_base.items()], window
        )
        positions += range(len(positions), len(arr))
        # every item counts at its shift, which lies inside the window
        hits = nonzero[m] = list(compress(positions, arr))
        counts[m] = arr[: hits[-1] + 1].tolist()

    violations = []
    near = []
    for m in sorted(counts):
        arr = counts[m]
        bound = point_bound(stream.q, m)
        for n in nonzero[m]:
            c = arr[n]
            if c > bound:
                violations.append((m, n, c, bound))
            elif 2 * c > bound:
                near.append((m, n, c, bound))

    mode, cells = "none", []
    if stream.locality_fn is not None:
        total_nonzero = sum(map(len, nonzero.values()))
        mode = "full" if total_nonzero <= _FULL_CHECK_CELLS else "sampled"
        cells = _chosen_cells(counts, nonzero, window, mode)
        # cells run in (m, n) order: one size's expected lists at a time
        for m, size_cells in groupby(cells, operator.itemgetter(0)):
            # want[n]: the items of size m through n, for the chosen cells only
            want: dict[int, list[int]] = {n: [] for _, n in size_cells}
            for b, ids in groups[m].items():
                base = bases[b]
                if mode == "full":
                    # every position in the window is a chosen cell: walk
                    # each item's positions
                    for j in ids:
                        shift, cut = shifts[j], base
                        if shift + base[-1] >= window:
                            cut = base[: bisect_left(base, window - shift)]
                        for n in map(shift.__add__, cut):
                            want[n].append(j)
                else:
                    # a few cells: an item holds n iff its shift is n - x
                    # for an x in its base
                    by_shift: dict[int, list[int]] = {}
                    for j in ids:
                        by_shift.setdefault(shifts[j], []).append(j)
                    for n, expect in want.items():
                        for at in filter(None, map(by_shift.get, map(n.__sub__, base))):
                            expect += at
            for n, expect in want.items():
                expect.sort()
                got = tuple(stream.locality(m, n))
                if got != tuple(expect):
                    diff = sorted(set(got).symmetric_difference(expect))
                    witness_j = diff[0] if diff else -1
                    raise StreamIntegrityError(
                        f"locality({m}, {n}) returned {list(got)} but the enumeration "
                        f"holds {expect}",
                        witness=(witness_j, m, n),
                    )

    return SparsityReport(
        window=window,
        M=stream.M,
        q=stream.q,
        counts=counts,
        violations=tuple(violations),
        near=tuple(near),
        cross_check=mode,
        cells_checked=len(cells),
        max_size_seen=max(sizes, default=0),
        items_in_window=sum(len(ids) for by_base in groups.values() for ids in by_base.values()),
    )


def gen_sets_stream(
    seed: int,
    count: int,
    window: int,
    M: int,
    *,
    q: Fraction = Fraction(1, 2),
    spread: int = 8,
) -> ConstraintStream:
    """Deterministic scattered set family for tests and experiments:
    ``count`` distinct sets, sizes in ``[M, M+spread]``, inside ``[0, window)``."""
    if count < 0 or M < 1:
        raise InvalidParameterError("count must be >= 0 and M >= 1")
    if window < 4 * (M + spread):
        raise InvalidParameterError("window too small for the requested sizes")
    if count > sum(math.comb(window, m) for m in range(M, M + spread + 1)):
        raise InvalidParameterError(f"the window holds fewer than {count} distinct sets")
    items: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    attempt = 0
    for j in range(count):
        while True:
            size = M + u64(seed, 9100, j, attempt) % (spread + 1)
            elems: set[int] = set()
            k = 0
            while len(elems) < size:
                elems.add(u64(seed, 9200, j, attempt, k) % window)
                k += 1
            attempt += 1
            dom = tuple(sorted(elems))
            if dom not in seen:
                seen.add(dom)
                items.append(dom)
                break
    return ConstraintStream(M, q, tuple(items))


class Coloring(FrozenRecord):
    """A committed prefix of an infinite 2-coloring.

    ``bits`` holds exactly the committed prefix; re-running the producer
    with a larger horizon reproduces these bits verbatim.
    """

    __slots__ = _fields = ("bits", "seed", "stream_fingerprint", "n0", "phases")

    def __init__(self, bits: str, seed: int, stream_fingerprint: str, n0: int, phases: int):
        if bits.strip("01"):
            raise InvalidInputError("coloring bits must be 0/1 characters")
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "stream_fingerprint", stream_fingerprint)
        object.__setattr__(self, "n0", n0)
        object.__setattr__(self, "phases", phases)

    @property
    def committed_len(self) -> int:
        return len(self.bits)


def write_blocks(lines: Iterable[str], write: Callable[[str], object]) -> None:
    """Hand ``lines``, each with its line break, to ``write`` joined in
    blocks of whole lines: no more than a block of the text is held."""
    lines = iter(lines)
    while block := "".join(islice(lines, _BLOCK_LINES)):
        write(block)


def _coloring_lines(coloring: Coloring):
    # a coloring built without a stream carries no `# stream` comment,
    # which parse_coloring reads back as the empty fingerprint
    if coloring.stream_fingerprint:
        yield f"# stream {coloring.stream_fingerprint}\n"
    yield f"# phases {coloring.n0} {coloring.phases}\n"
    yield f"coloring {coloring.committed_len} {coloring.seed}\n"
    bits = coloring.bits
    for start in range(0, len(bits), 64):
        yield bits[start : start + 64] + "\n"


def write_coloring(coloring: Coloring, write: Callable[[str], object]) -> None:
    """Hand the coloring text to ``write`` in blocks of whole lines."""
    write_blocks(_coloring_lines(coloring), write)


def format_coloring(coloring: Coloring) -> str:
    """The coloring text :func:`write_coloring` writes, as one string."""
    blocks: list[str] = []
    write_coloring(coloring, blocks.append)
    return "".join(blocks)


def parse_coloring(text: str) -> Coloring:
    fingerprint = ""
    n0 = phases = seed = header_line = 0
    committed = None
    chunks: list[str] = []
    seen: set[str] = set()
    with RecordReader(text) as records:
        for line in records:
            if line[0] == "#":
                toks = line[1:].split()
                if toks[:1] in (["stream"], ["phases"]):
                    if toks[0] in seen:
                        raise records.error(f"repeated {toks[0]} comment")
                    if committed is not None:
                        raise records.error(f"{toks[0]} comment after the coloring header")
                    seen.add(toks[0])
                    if toks[0] == "stream":
                        (fingerprint,) = toks[1:]
                    else:
                        n0, phases = map(int, toks[1:])
                continue
            toks = line.split()
            if toks[0] == "coloring":
                if committed is not None:
                    raise records.error("repeated coloring header")
                committed, seed = map(int, toks[1:])
                header_line = records.lineno
                if committed < 0:
                    raise records.error(f"bit count {committed} is negative")
            elif line.strip("01"):
                raise records.error("bit line holds a character other than 0/1")
            elif committed is None:
                raise records.error("bit record before the coloring header")
            else:
                chunks.append(line)
    if committed is None:
        raise ParseError("missing coloring header")
    bits = "".join(chunks)
    if len(bits) != committed:
        raise records.error(f"header declares {committed} bits, found {len(bits)}", header_line)
    return Coloring(bits, seed, fingerprint, n0, phases)


def _manifest_lines(stream: ConstraintStream):
    """Each line of the manifest text, with its line break."""
    yield f"stream sets M {stream.M} q {frac_str(stream.q)}\n"
    emitted_by, emitted_at = stream.emitted_by, stream.emitted_at
    bases, base_ids, shifts = stream.bases, stream.base_ids, stream.shifts
    sizes = list(map(len, bases))
    spans = [base[-1] + 1 for base in bases]
    # gathers[b] picks base b's words out of the slice of texts its item
    # spans; a base with fewer offsets than a quarter of its span is
    # written word by word instead, as most of its slice would be skipped
    gathers = [_gather(base) if span <= 4 * len(base) else None for base, span in zip(bases, spans)]
    # texts[n] is the text of position n, up to the last position an item
    # covers, or up to as many as the items list if that is fewer
    ends = map(operator.add, shifts, map(spans.__getitem__, base_ids))
    listed = sum(map(sizes.__getitem__, base_ids))
    texts = list(map(str, range(min(max(ends, default=0), listed))))
    for j, (b, shift) in enumerate(zip(base_ids, shifts)):
        if emitted_by is not None:
            yield f"# by {emitted_by[j]} at {emitted_at[j]}\n"
        end = shift + spans[b]
        if end <= len(texts) and gathers[b] is not None:
            words = gathers[b](texts[shift:end])
        else:
            words = map(str, map(shift.__add__, bases[b]))
        yield f"item {j} {sizes[b]} {' '.join(words)}\n"


def write_manifest(stream: ConstraintStream, write: Callable[[str], object]) -> str:
    """Hand the manifest text to ``write`` in blocks of whole lines and
    return its fingerprint: the first 16 hex digits of the sha256 of the
    text.  The stream takes that fingerprint unless it already has one (a
    parsed stream keeps the hash of the text it was read from).  No more
    than a block of the text is held at once."""
    sha = hashlib.sha256()

    def hashed(block: str) -> None:
        sha.update(block.encode("utf-8"))
        write(block)

    write_blocks(_manifest_lines(stream), hashed)
    fingerprint = sha.hexdigest()[:16]
    if stream._fp is None:
        stream._fp = fingerprint
    return fingerprint


def format_manifest(stream: ConstraintStream) -> str:
    """The manifest text :func:`write_manifest` writes, as one string."""
    blocks: list[str] = []
    write_manifest(stream, blocks.append)
    return "".join(blocks)


class ManifestReader:
    """A manifest's items, read a line at a time from chunks that each end
    at a line break: iterating yields ``(j, dom, by)`` per item, ``by`` the
    ``# by`` pair or None.  It checks the header, the ``# by`` lines, ids
    and arity, and leaves each item's size, sign and order to
    :func:`is_canonical`.  ``int()`` runs once per distinct token, so items
    share one ``int`` per distinct position.  After the last line,
    ``fingerprint`` is that of the text read."""

    def __init__(self, chunks: Iterable[str]):
        self._sha = hashlib.sha256()
        self.records = RecordReader(map(self._hashed, chunks))
        self.M = 0
        self.q = Fraction(0)
        self.fingerprint = ""

    def _hashed(self, chunk: str) -> str:
        self._sha.update(chunk.encode("utf-8"))
        return chunk

    def refused(self, j: int, dom: tuple, lineno: int = 0) -> ParseError:
        """The error for item ``j`` that :func:`is_canonical` refuses, on
        line ``lineno`` (0: the current line)."""
        message = "positions must be nonnegative, increasing"
        if len(dom) < self.M:
            message = f"item {j} has size {len(dom)} below the minimum {self.M}"
        return self.records.error(message, lineno)

    def __iter__(self):
        header = False
        count = 0
        # provenance is all or nothing: item 0 decides, and each `# by` line
        # is read once, by the item after it
        with_by: bool | None = None
        pending: tuple[int, int] | None = None
        pending_line = 0
        position = _Positions(int).__getitem__
        with self.records as records:
            for line in records:
                if line[0] == "#":
                    toks = line[1:].split()
                    if toks and toks[0] == "by":
                        if len(toks) != 4 or toks[2] != "at":
                            raise ValueError(line)
                        if not header:
                            raise records.error("provenance line before the stream header")
                        if pending is not None:
                            raise records.error("repeated provenance line")
                        pending = (position(toks[1]), position(toks[3]))
                        pending_line = records.lineno
                    continue
                toks = line.split()
                if toks[0] == "item":
                    j, k = int(toks[1]), int(toks[2])
                    if j != count:
                        raise records.error(f"item index {j} out of order")
                    dom = tuple(map(position, toks[3:]))
                    if len(dom) != k:
                        raise records.error("item arity mismatch")
                    if not header:
                        raise records.error("item record before the stream header")
                    if j == 0:
                        with_by = pending is not None
                    elif (pending is not None) != with_by:
                        raise records.error("a provenance line must precede every item or none")
                    yield j, dom, pending
                    count += 1
                    pending = None
                elif toks[0] == "stream":
                    if header:
                        raise records.error("repeated stream header")
                    _, kind, m_tag, M, q_tag, q = toks
                    if m_tag != "M" or q_tag != "q":
                        raise ValueError(line)
                    if kind != "sets":
                        raise records.error(f"unknown stream kind {kind!r}")
                    M, q = int(M), Fraction(q)
                    self.M, self.q = M, _checked_q(M, q)
                    header = True
                else:
                    raise records.error(f"unknown record {toks[0]!r}")
        if not header:
            raise ParseError("missing stream header")
        if pending is not None:
            raise records.error("provenance line with no item after it", pending_line)
        self.fingerprint = self._sha.hexdigest()[:16]


def parse_manifest(text: str) -> ConstraintStream:
    """The stream a manifest describes, fingerprinted by the hash of
    ``text`` itself: verifying a coloring formats nothing."""
    reader = ManifestReader((text,))
    doms: list[tuple[int, ...]] = []
    prov: list[tuple[int, int] | None] = []
    for _, dom, by in reader:
        doms.append(dom)
        prov.append(by)
    provenance = tuple(prov) if prov and prov[0] else None
    try:
        stream = ConstraintStream(reader.M, reader.q, tuple(doms), provenance)
    except StreamIntegrityError as exc:
        # only a refused item's line is looked up, by reading the text again
        (j,) = exc.witness
        again = ManifestReader((text,))
        lineno = next(islice((again.records.lineno for _ in again), j, None))
        raise reader.refused(j, doms[j], lineno) from exc
    stream._fp = reader.fingerprint
    return stream
