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
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, groupby, islice, repeat
from typing import Callable, Iterable

from .errors import (
    InvalidInputError,
    InvalidParameterError,
    ParseError,
    RecordReader,
    StreamIntegrityError,
)
from .lll import frac_str
from .rng import u64

# validate_sparsity checks up to this many nonzero cells, else samples per size
_FULL_CHECK_CELLS = 20000
_SAMPLE_PER_SIZE = 12
# write_manifest hands out the text this many lines at a time
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


@dataclass
class ConstraintStream:
    """A finite, indexable family of finite sets with a locality oracle.

    ``items`` holds each item once, as given: a tuple of strictly increasing
    nonnegative ints, at least ``M`` long, which :func:`write_manifest`
    writes out as the manifest.  The constructor sorts nothing and
    refuses any other item, with its index as the witness.  A set is met when
    its domain receives both colors, and :meth:`is_violated` is the one check
    of whether the bits on a head of the domain still carry a single color.

    ``locality(m, n)`` lists exactly the indices whose item has size ``m``
    and touches position ``n``.  It asks the procedural oracle a builder
    installs as ``locality_fn``, which :func:`validate_sparsity`
    cross-checks against the enumeration; a stream without one (generated,
    parsed or built by hand) raises ``InvalidInputError`` instead of
    answering from its own items.
    """

    M: int
    q: Fraction
    items: tuple
    provenance: tuple | None = None
    locality_fn: Callable[[int, int], tuple[int, ...]] | None = field(
        default=None, compare=False, repr=False
    )
    _fp: str | None = field(init=False, default=None, compare=False, repr=False)

    def __post_init__(self):
        self.q = _checked_q(self.M, self.q)
        items, M = self.items, self.M
        # a list could change after the check
        if type(items) is not tuple:
            raise InvalidInputError(f"items must be a tuple, got {type(items).__name__}")
        # write_manifest writes the text of the first position of each value,
        # so every distinct position must be an int: a bool or a float there
        # would reach the manifest as a token the parser refuses
        if not set(map(type, set().union(*items))) <= {int}:
            j, n = next((j, n) for j, dom in enumerate(items) for n in dom if type(n) is not int)
            raise InvalidInputError(f"item {j}: position {n!r} is not an int")
        for j, dom in enumerate(items):
            if not is_canonical(dom, M):
                raise StreamIntegrityError(
                    f"item {j}: {dom!r} is not a tuple of at least {M} increasing "
                    "nonnegative positions", witness=(j,)
                )
        if self.provenance is not None and len(self.provenance) != len(items):
            raise InvalidInputError("provenance length must match item count")

    def __len__(self) -> int:
        return len(self.items)

    def dom(self, j: int) -> tuple[int, ...]:
        return self.items[j]

    def locality(self, m: int, n: int) -> tuple[int, ...]:
        if self.locality_fn is None:
            raise InvalidInputError("the stream has no locality oracle")
        return self.locality_fn(m, n)

    def is_violated(self, j: int, bits, cut: int | None = None) -> bool:
        """True iff the first ``cut`` positions of ``dom(j)`` (all of them
        when ``cut`` is None) carry a single color in ``bits``, a str, bytes
        or bytearray of 0/1 by position.  An empty head has one color."""
        return single_color(self.items[j][:cut], bits)

    def fingerprint(self) -> str:
        """First 16 hex digits of the sha256 of the manifest text the stream
        was parsed from, or else of the one :func:`write_manifest` writes."""
        if self._fp is None:
            # hashed block by block; the text is kept nowhere
            write_manifest(self, len)
        return self._fp


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


def single_color(head, bits) -> bool:
    """True iff the positions in ``head`` carry a single color in ``bits``;
    an empty head has one color."""
    bit = bits.__getitem__
    return not head or not any(map(bit(head[0]).__ne__, map(bit, head)))


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


@dataclass
class SparsityReport:
    """Outcome of a sparsity sweep: exact per-point counts per size, the
    cells violating or approaching the bound, and how much of the locality
    oracle was cross-checked against the enumeration."""

    window: int
    M: int
    q: Fraction
    counts: dict[int, list[int]]
    violations: tuple[tuple[int, int, int, int], ...]
    near: tuple[tuple[int, int, int, int], ...]
    cross_check: str
    cells_checked: int
    max_size_seen: int
    items_in_window: int

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


def _in_window(dom: tuple[int, ...], window: int) -> tuple[int, ...]:
    """The positions of ``dom`` below ``window``: ``dom`` itself when it
    ends inside the window, so only an item that straddles it is sliced."""
    return dom if dom[-1] < window else dom[: bisect_left(dom, window)]


def validate_sparsity(stream: ConstraintStream, window: int) -> SparsityReport:
    """Check the point bound ``count <= 2**(q*m)`` over the window and
    cross-check the stream's locality oracle against the enumeration.

    Counts come from one pass over the enumerated items, so the bound check
    is complete for every cell with ``m <= window`` and ``n < window``.
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
    items = stream.items
    # groups[m]: the ids of the items of size m that fit the window and start inside it
    groups: dict[int, list[int]] = {}
    for j, dom in enumerate(items):
        if len(dom) <= window and dom[0] < window:
            groups.setdefault(len(dom), []).append(j)
    counts: dict[int, list[int]] = {}
    nonzero: dict[int, list[int]] = {}
    for m, ids in groups.items():
        tally = Counter(chain.from_iterable(_in_window(items[j], window) for j in ids))
        hits = nonzero[m] = sorted(tally)
        counts[m] = list(map(tally.get, range(hits[-1] + 1), repeat(0)))

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
            for j in groups[m]:
                pos = _in_window(items[j], window)
                # a full check visits every nonzero cell, so every position
                for n in pos if mode == "full" else want.keys() & pos:
                    want[n].append(j)
            for n, expect in want.items():
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
        max_size_seen=max(map(len, stream.items), default=0),
        items_in_window=sum(map(len, groups.values())),
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


@dataclass(frozen=True)
class Coloring:
    """A committed prefix of an infinite 2-coloring.

    ``bits`` holds exactly the committed prefix; re-running the producer
    with a larger horizon reproduces these bits verbatim.
    """

    bits: str
    seed: int
    stream_fingerprint: str
    n0: int
    phases: int

    def __post_init__(self):
        if self.bits.strip("01"):
            raise InvalidInputError("coloring bits must be 0/1 characters")

    @property
    def committed_len(self) -> int:
        return len(self.bits)


def format_coloring(coloring: Coloring) -> str:
    # a coloring built without a stream carries no `# stream` comment,
    # which parse_coloring reads back as the empty fingerprint
    lines = [f"# stream {coloring.stream_fingerprint}"] if coloring.stream_fingerprint else []
    lines += [
        f"# phases {coloring.n0} {coloring.phases}",
        f"coloring {coloring.committed_len} {coloring.seed}",
    ]
    for start in range(0, len(coloring.bits), 64):
        lines.append(coloring.bits[start : start + 64])
    return "\n".join(lines) + "\n"


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
    prov = stream.provenance
    text_of = _Positions(str).__getitem__
    for j, dom in enumerate(stream.items):
        if prov is not None:
            i, s = prov[j]
            yield f"# by {i} at {s}\n"
        yield f"item {j} {len(dom)} {' '.join(map(text_of, dom))}\n"


def write_manifest(stream: ConstraintStream, write: Callable[[str], object]) -> str:
    """Hand the manifest text to ``write`` in blocks of whole lines and
    return its fingerprint: the first 16 hex digits of the sha256 of the
    text.  The stream takes that fingerprint unless it already has one (a
    parsed stream keeps the hash of the text it was read from).  No more
    than a block of the text is held at once."""
    sha = hashlib.sha256()
    lines = _manifest_lines(stream)
    while block := "".join(islice(lines, _BLOCK_LINES)):
        sha.update(block.encode("utf-8"))
        write(block)
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
