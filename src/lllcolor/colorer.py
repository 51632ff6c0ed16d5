"""Phase-committed online 2-coloring against a sparse constraint stream.

Windows double: N_k = n0 * 2**k with n0 = max(64, 4M).  Phase k visits the
sets whose domain fits inside [0, N_k): those that enter with it, merged in
id order with the sets the last phase left open.  It drops each set the
committed bits already give both colors, and hands the rest to the set
resampler with a phase-keyed seed: fair bits on the uncommitted positions,
and for each set the one color its committed head carries, if it has a
head.  Samples are keyed per position, so the free bits are those a
resampler over the sets restricted to their uncommitted tails would draw.
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
from bisect import bisect_left

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
from .streams import Coloring, ConstraintStream

_ZERO = ord("0")


def phase_base(M: int) -> int:
    """First window size n0 = max(64, 4M)."""
    return max(64, 4 * M)


def committed_length(M: int, horizon: int) -> int:
    """The prefix length color_prefix commits: the least n0 * 2**j >= horizon."""
    n0 = phase_base(M)
    return n0 << (max(0, horizon - 1) // n0).bit_length()


def _open_sets(
    stream: ConstraintStream, committed: bytearray, ids: list[int], phase: int
) -> list[tuple[int, tuple[int, ...], int, int | None]]:
    """``(id, dom, cut, head)`` of each set in ``ids`` the committed bits leave
    single-colored: ``dom[:cut]`` is committed and carries color ``head``."""
    sets = []
    pinned: dict[int, tuple[int, int]] = {}
    prefix = len(committed)
    for j in ids:
        dom = stream.items[j]
        cut = bisect_left(dom, prefix)
        # an empty head has one color
        if cut and not stream.is_violated(j, committed, cut):
            continue
        if cut == len(dom):
            raise ConstructionFailureError(
                phase, (j,), "constraint violated on its committed positions"
            )
        head = committed[dom[0]] - _ZERO if cut else None
        # one committed color and one uncommitted position pin that position
        if 0 < cut == len(dom) - 1:
            prior = pinned.get(dom[-1])
            if prior is not None and prior[0] != head:
                raise ConstructionFailureError(
                    phase,
                    (prior[1], j),
                    f"constraints pin position {dom[-1]} to opposite bits",
                )
            pinned[dom[-1]] = (head, j)
        sets.append((j, dom, cut, head))
    # no coloring meets a one-position set, which only M = 1 admits
    lone = [j for j, dom, _, _ in sets if len(dom) == 1] if stream.M == 1 else ()
    if lone:
        raise ConstructionFailureError(phase, lone[:1], "constraint forbids its whole cube")
    return sets


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
    # set ids by last position: a phase's entering sets are the next run
    last = [dom[-1] for dom in stream.items].__getitem__
    by_end = sorted(range(len(stream)), key=last)
    entered = 0
    open_ids: list[int] = []
    while len(committed) < final:
        window = n0 << k
        target = n0 << (k - 1)
        entering = bisect_left(by_end, window, entered, key=last)
        ids = sorted(open_ids + by_end[entered:entering])
        entered = entering
        sets = _open_sets(stream, committed, ids, k)
        committed += b"0" * (target - len(committed))
        open_ids = [j for j, _, _, _ in sets]
        budget = default_budget(len(sets)) * slack
        try:
            free = resample_sets(sets, derive_seed(seed, k), budget)
        except NonConvergenceError as exc:
            raise ConstructionFailureError(
                k,
                tuple(exc.violated),
                f"resampling budget exhausted after {exc.resamplings} steps",
            ) from exc
        for n, v in free.items():
            if n < target:
                committed[n] = _ZERO + v
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
