"""Phase-committed online 2-coloring against a sparse constraint stream.

Windows double: N_k = n0 * 2**k with n0 = max(64, 4M).  Phase k visits the
sets whose domain fits inside [0, N_k): those that enter with it, merged in
id order with the sets the last phase left open.  It drops each set the
committed bits already give both colors, and hands the rest to the set
resampler with a phase-keyed seed: fair bits on the uncommitted positions,
and for each set the one color its committed head carries, if it has a
head.  Samples are keyed per position, so the free bits are those a
resampler over the sets restricted to their uncommitted tails would draw.
A set is read from the stream as its base and shift: its positions are
``shift + x`` for x in the base, and no phase derives its domain.
On quiescence the prefix [0, N_{k-1}) commits; bits in [N_{k-1}, N_k) stay
resampleable for one more phase so straddling constraints keep a wide
uncommitted margin.

Positions never touched by any constraint default to 0, so an empty stream
yields the all-zero prefix.  A constraint the committed bits violate or the
uncommitted bits cannot meet, a pair of constraints pinning one bit both
ways, or a resampling budget blow-up all raise ConstructionFailureError: the
strategy is honest about the rare cases it cannot finish.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from collections.abc import Iterable
from itertools import chain

from .errors import (
    ConstructionFailureError,
    InvalidInputError,
    InvalidParameterError,
    NonConvergenceError,
    WrongStreamError,
)
from .lll import default_budget, resample_sets
from .lll import solve_moser_tardos  # noqa: F401 - unused; perfbench/spans.py wraps it by this name
from .rng import derive_seed
from .streams import Coloring, ConstraintStream, single_color

_ZERO = ord("0")


def phase_base(M: int) -> int:
    """First window size n0 = max(64, 4M)."""
    return max(64, 4 * M)


def committed_length(M: int, horizon: int) -> int:
    """The prefix length color_prefix commits: the least n0 * 2**j >= horizon."""
    n0 = phase_base(M)
    return n0 << (max(0, horizon - 1) // n0).bit_length()


def _open_sets(
    stream: ConstraintStream, committed: bytearray, ids: Iterable[int], phase: int
) -> tuple[array, list[tuple[int, ...]], list[int], array, array]:
    """The sets in ``ids`` the committed bits leave single-colored, as the
    columns :func:`resample_sets` takes: their ids, each set's base and
    shift (the stream's own objects), so that its domain is ``shift + x``
    for x in ``base``, the count ``cut`` of its first positions that are
    committed, and the color ``head`` they carry, -1 when ``cut`` is 0.  The
    cuts come back as an ``array("q")`` and the heads as an ``array("b")``."""
    # cuts and heads are small ints, which a list holds without an int
    # object each and appends faster than an array
    open_ids, set_bases, set_shifts, cuts, heads = array("q"), [], [], [], []
    pinned: dict[int, tuple[int, int]] = {}
    prefix = len(committed)
    bases, base_ids, shifts = stream.bases, stream.base_ids, stream.shifts
    for j in ids:
        base, shift = bases[base_ids[j]], shifts[j]
        cut = bisect_left(base, prefix - shift)
        # an empty head has one color
        if cut and not single_color(base[:cut], committed, shift):
            continue
        if cut == len(base):
            raise ConstructionFailureError(
                phase, (j,), "constraint violated on its committed positions"
            )
        head = committed[shift] - _ZERO if cut else -1
        # one committed color and one uncommitted position pin that position
        if 0 < cut == len(base) - 1:
            last = shift + base[-1]
            prior = pinned.get(last)
            if prior is not None and prior[0] != head:
                raise ConstructionFailureError(
                    phase,
                    (prior[1], j),
                    f"constraints pin position {last} to opposite bits",
                )
            pinned[last] = (head, j)
        open_ids.append(j)
        set_bases.append(base)
        set_shifts.append(shift)
        cuts.append(cut)
        heads.append(head)
    # no coloring meets a one-position set, which only M = 1 admits
    lone = [j for j, base in zip(open_ids, set_bases) if len(base) == 1] if stream.M == 1 else ()
    if lone:
        raise ConstructionFailureError(phase, lone[:1], "constraint forbids its whole cube")
    return open_ids, set_bases, set_shifts, array("q", cuts), array("b", heads)


def color_prefix(stream: ConstraintStream, horizon: int, seed: int) -> Coloring:
    """Commit a prefix of length >= horizon on which every set whose domain
    fits inside the committed region receives both colors.

    Deterministic in (stream, seed); callers are expected to have passed
    validate_sparsity over the horizon window first.
    """
    if horizon < 1:
        raise InvalidParameterError("horizon must be at least 1")
    return _run_phases(stream, bytearray(), 1, horizon, seed)


def _run_phases(
    stream: ConstraintStream, committed: bytearray, k: int, horizon: int, seed: int
) -> Coloring:
    """Run phases k, k + 1, ... on top of the committed bits of phases 1..k-1
    until the prefix covers horizon.  The cursor starts at set 0, so the first
    phase also visits the sets earlier phases dropped, and drops them again."""
    n0 = phase_base(stream.M)
    final = committed_length(stream.M, horizon)
    slack = math.ceil(1 / (1 - stream.q))
    bases, base_ids, shifts = stream.bases, stream.base_ids, stream.shifts

    def last(j: int) -> int:
        return shifts[j] + bases[base_ids[j]][-1]

    # set ids by last position: a phase's entering sets are the next run
    by_end = array("l", sorted(range(len(stream)), key=last))
    entered = 0
    open_ids = array("q")
    while len(committed) < final:
        window = n0 << k
        target = n0 << (k - 1)
        entering = bisect_left(by_end, window, entered, key=last)
        # the sets left open and the entering run, in id order: the sorted
        # list of ids is dropped once the array is filled, before the phase
        # builds its columns, and rebinding open_ids drops the array once
        # _open_sets has read it
        open_ids = array("q", sorted(chain(open_ids, by_end[entered:entering])))
        entered = entering
        sets = _open_sets(stream, committed, open_ids, k)
        committed += b"0" * (target - len(committed))
        open_ids = sets[0]
        budget = default_budget(len(open_ids)) * slack
        try:
            free = resample_sets(*sets, derive_seed(seed, k), budget)
        except NonConvergenceError as exc:
            raise ConstructionFailureError(
                k,
                tuple(exc.violated),
                f"resampling budget exhausted after {exc.resamplings} steps",
            ) from exc
        for n, v in free.items():
            if n < target:
                committed[n] = _ZERO + v
        # the next phase builds its own sets: hold this one's no longer
        del sets, free
        k += 1
    bits = committed.decode("ascii")
    return Coloring(bits, seed, stream.fingerprint(), n0, k - 1)


def extend_coloring(
    coloring: Coloring, stream: ConstraintStream, new_horizon: int
) -> Coloring:
    """Resume the phase schedule at phase ``phases + 1`` from the coloring's
    committed bits, up to a larger horizon.  The result is the coloring
    color_prefix commits for new_horizon, since each phase depends only on
    the committed bits, its number and the seed.  A coloring whose window
    size, phase count and length do not fit the stream's schedule, say one
    read from an edited file, is refused."""
    if coloring.stream_fingerprint != stream.fingerprint():
        raise WrongStreamError(
            f"coloring was built against stream {coloring.stream_fingerprint}, "
            f"not {stream.fingerprint()}"
        )
    n0, phases, length = coloring.n0, coloring.phases, coloring.committed_len
    if n0 != phase_base(stream.M) or phases < 1 or length != n0 << (phases - 1):
        raise InvalidInputError(
            f"{length} bits in {phases} phases from base {n0} are not a phase schedule "
            f"of this stream"
        )
    if new_horizon <= length:
        raise InvalidParameterError("new horizon must exceed the committed length")
    committed = bytearray(coloring.bits, "ascii")
    return _run_phases(stream, committed, phases + 1, new_horizon, coloring.seed)
