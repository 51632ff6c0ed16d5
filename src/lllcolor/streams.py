"""Constraint streams: indexable families of finite sets with the stage
bound their builder proves, plus the sparsity validation they must pass
before coloring.

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
from collections import Counter
from collections.abc import Callable, Iterable
from fractions import Fraction
from itertools import compress, islice
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
    """A finite, indexable family of finite sets with a stage bound.

    Each item is a shift of a base.  ``bases`` holds each distinct base
    once, in order of first use: a tuple of strictly increasing ints that
    starts at 0 and is at least ``M`` long.  Item j is base
    ``bases[base_ids[j]]`` moved by the nonnegative int ``shifts[j]``, so
    its domain ``dom(j)`` is ``shifts[j] + x`` for each x in the base, and
    its first position is the shift.  Equal offsets and shifts share one
    int object.

    ``ConstraintStream(M, q, bases, base_ids, shifts, emitted_by,
    emitted_at, stage_bound)`` takes exactly its fields, then the bound,
    with base ids in order of first use.  It checks each base once and
    refuses the first bad one with its index as the witness, and it checks
    the int columns the same way, each entry once.  Equal columns give an
    equal stream and the same manifest, which :func:`write_manifest`
    writes out.

    ``emitted_by`` and ``emitted_at``, both given or both None, hold each
    item's member and stage; they are copied into two ``array("q")``
    columns.  A set is met when its domain receives both colors, which
    :func:`single_color` checks on a base and a shift.

    ``stage_bound(i, n, s)``, installed by a builder, answers whether
    member i may emit, at stage s, an item whose first position is n.  It
    is the stream's locality oracle in the form the effective Local Lemma
    needs: given the enumeration, the sets through a position n are among
    those each member emits up to the last stage its bound allows at a
    position up to n.  :func:`validate_sparsity` checks every item's
    provenance against it.  A generated, parsed or hand-built stream has
    none.

    Two streams are equal when their fields other than the bound and the
    cached fingerprint ``_fp`` are; neither shows in the repr.
    """

    _fields = ("M", "q", "bases", "base_ids", "shifts", "emitted_by", "emitted_at")
    __slots__ = (*_fields, "stage_bound", "_fp")

    def __init__(
        self, M: int, q, bases, base_ids, shifts, emitted_by=None, emitted_at=None,
        stage_bound=None,
    ):
        q = _checked_q(M, q)
        bases, base_ids = tuple(bases), tuple(base_ids)
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
        if len(shifts) != len(base_ids):
            raise InvalidInputError("one shift per base id required")
        if (emitted_by is None) != (emitted_at is None):
            raise InvalidInputError("provenance needs both columns or neither")
        if emitted_by is not None and not len(emitted_by) == len(emitted_at) == len(shifts):
            raise InvalidInputError("provenance length must match item count")
        for name, column in ("shift", shifts), ("member", emitted_by), ("stage", emitted_at):
            if column is not None:
                _check_column(name, column)
        # one int object per distinct value, offset or shift
        position = _Positions(int).__getitem__
        bases = tuple(tuple(map(position, base)) for base in bases)
        shifts = tuple(map(position, shifts))
        if emitted_by is not None:
            emitted_by, emitted_at = array("q", emitted_by), array("q", emitted_at)
        self._set(M, q, bases, base_ids, shifts, emitted_by, emitted_at)
        self.stage_bound, self._fp = stage_bound, None

    def __len__(self) -> int:
        return len(self.shifts)

    def dom(self, j: int) -> tuple[int, ...]:
        return tuple(map(self.shifts[j].__add__, self.bases[self.base_ids[j]]))

    def fingerprint(self) -> str:
        """First 16 hex digits of the sha256 of the manifest text the stream
        was parsed from, or else of the one :func:`write_manifest` writes."""
        if self._fp is None:
            # hashed block by block; the text is kept nowhere
            write_manifest(self, len)
        return self._fp


def _check_column(name: str, column) -> None:
    """Refuse the first entry of ``column`` that is not an int in
    [0, 2**63), the range of an ``array("q")`` column, with its index."""
    ints = set(map(type, column)) <= {int}
    if ints and 0 <= min(column, default=0) and max(column, default=0) < 2**63:
        return
    j, v = next((j, v) for j, v in enumerate(column) if type(v) is not int or not 0 <= v < 2**63)
    raise StreamIntegrityError(f"item {j}: {name} {v!r} is not a nonnegative int", witness=(j,))


def _split(items) -> tuple[tuple[tuple[int, ...], ...], list[int], list[int]]:
    """The constructor's columns for ``items``: each distinct base once, in
    order of first use, and each item's base id and shift.  It checks
    nothing: its callers' items are canonical, as generated or as passed
    by :class:`ManifestReader` on their own lines."""
    table: dict[tuple[int, ...], int] = {}
    base_ids = [table.setdefault(tuple(map(dom[0].__rsub__, dom)), len(table)) for dom in items]
    return tuple(table), base_ids, [dom[0] for dom in items]


def _checked_q(M: int, q) -> Fraction:
    """``q`` as a Fraction, once ``M`` and ``q`` are checked as a stream's."""
    if type(M) is not int:
        raise InvalidParameterError(f"M {M!r} is not an int")
    if M < 1:
        raise InvalidParameterError("M must be at least 1")
    q = Fraction(q)
    if not 0 < q < 1:
        raise InvalidParameterError(f"q must lie in (0, 1), got {q}")
    return q


def is_canonical(dom, M: int) -> bool:
    """The manifest reader's item check, and the constructor's base check
    with a first offset of 0: True iff ``dom`` is a tuple of at least ``M``
    strictly increasing nonnegative positions."""
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
    cells violating or approaching the bound, and whether the stream's
    stage bound was checked ("held") or there was none to check ("none")."""

    __slots__ = _fields = (
        "window", "M", "q", "counts", "violations", "near", "stage_bound",
        "max_size_seen", "items_in_window",
    )

    def __init__(
        self,
        window: int,
        M: int,
        q: Fraction,
        counts: dict[int, list[int]],
        violations: tuple[tuple[int, int, int, int], ...],
        near: tuple[tuple[int, int, int, int], ...],
        stage_bound: str,
        max_size_seen: int,
        items_in_window: int,
    ):
        self._set(
            window, M, q, counts, violations, near, stage_bound, max_size_seen, items_in_window
        )

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
            "stage_bound": self.stage_bound,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


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
    every item's stage against the stream's stage bound.

    Counts come from every enumerated item, through its base and shift, so
    the bound check is complete for every cell with ``m <= window`` and
    ``n < window``.
    ``counts[m]`` covers ``[0, len(counts[m]))``, up to the last position
    an item of size m touches; every cell beyond it is zero, so the
    report's size follows the stream, not the window.
    A stream with provenance and a stage bound has each item's member,
    first position and stage put to the bound in one pass, window or no
    window; the first item past it raises ``StreamIntegrityError`` with a
    ``(j,)`` witness, and the report says "held".  A stream without one or
    the other has nothing to check: the report says "none", and its counts
    and verdicts are the same.
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

    held = "none"
    if stream.emitted_by is not None and stream.stage_bound is not None:
        by, at = stream.emitted_by, stream.emitted_at
        for j, allowed in enumerate(map(stream.stage_bound, by, shifts, at)):
            if not allowed:
                raise StreamIntegrityError(
                    f"item {j}: member {by[j]} emitted it at stage {at[j]}, past the "
                    f"stage bound of its first position {shifts[j]}",
                    witness=(j,),
                )
        held = "held"

    return SparsityReport(
        window=window,
        M=stream.M,
        q=stream.q,
        counts=counts,
        violations=tuple(violations),
        near=tuple(near),
        stage_bound=held,
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
    return ConstraintStream(M, q, *_split(items))


class Coloring(FrozenRecord):
    """A committed prefix of an infinite 2-coloring.

    ``bits`` holds exactly the committed prefix; re-running the producer
    with a larger horizon reproduces these bits verbatim.  ``seed``, ``n0``
    and ``phases`` are ints, the last two nonnegative, as
    :func:`parse_coloring` reads them back.
    """

    __slots__ = _fields = ("bits", "seed", "stream_fingerprint", "n0", "phases")

    def __init__(self, bits: str, seed: int, stream_fingerprint: str, n0: int, phases: int):
        if bits.strip("01"):
            raise InvalidInputError("coloring bits must be 0/1 characters")
        for name, value in ("seed", seed), ("n0", n0), ("phases", phases):
            if type(value) is not int:
                raise InvalidInputError(f"coloring {name} {value!r} is not an int")
            if value < 0 and name != "seed":
                raise InvalidInputError(f"coloring {name} {value} is negative")
        self._set(bits, seed, stream_fingerprint, n0, phases)

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
                        if min(n0, phases) < 0:
                            raise records.error(f"phases field {min(n0, phases)} is negative")
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
    and arity, and refuses an item :func:`is_canonical` refuses on the
    item's own line.  ``int()`` runs once per distinct token, so items
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
                        member, stage = pending = (position(toks[1]), position(toks[3]))
                        if not (0 <= member < 2**63 and 0 <= stage < 2**63):
                            raise records.error("provenance must lie in [0, 2**63)")
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
                    if not is_canonical(dom, self.M):
                        if k < self.M:
                            raise records.error(f"item {j} has size {k} below the minimum {self.M}")
                        raise records.error("positions must be nonnegative, increasing")
                    if dom[-1] >= 2**63:
                        raise records.error("positions must lie below 2**63")
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
    members: list[int] = []
    stages: list[int] = []
    for _, dom, by in reader:
        doms.append(dom)
        if by is not None:
            members.append(by[0])
            stages.append(by[1])
    # the reader passes a `# by` pair with every item or with none
    columns = (members, stages) if members else (None, None)
    stream = ConstraintStream(reader.M, reader.q, *_split(doms), *columns)
    stream._fp = reader.fingerprint
    return stream
