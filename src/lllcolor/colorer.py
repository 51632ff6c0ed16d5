"""Phase-committed online 2-coloring against a sparse constraint stream.

Windows double: N_k = n0 * 2**k with n0 = max(64, 4M).  Each set is one bad
event, built once per call: its whole domain with the two constant rows.
Phase k gathers the event of every set whose domain fits inside [0, N_k),
drops those the committed bits already give both colors, and runs the
deterministic resampler over the rest with a phase-keyed seed: fair bits on
the uncommitted positions, and each committed position as a fixed variable
that always takes its committed bit.  Fixing a bit is conditioning on it,
and samples are keyed per variable, so the free positions draw what they
would draw over the events restricted to them.  On quiescence the prefix
[0, N_{k-1}) commits; bits in [N_{k-1}, N_k) stay resampleable for one more
phase so straddling constraints keep a wide uncommitted margin.

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
    InvalidParameterError,
    LLLColorError,
    NonConvergenceError,
    UnsatisfiableEventError,
    WrongStreamError,
)
from .lll import Event, VarSpec, _trusted_event, default_budget, fair_bit, solve_moser_tardos
from .rng import derive_seed
from .streams import Coloring, ConstraintStream

_ZERO = ord("0")
# a committed ASCII bit as a variable whose one value of weight 1 is that bit
_POINT_MASS = {_ZERO: ("1", "0"), _ZERO + 1: ("0", "1")}


def phase_base(M: int) -> int:
    """First window size n0 = max(64, 4M)."""
    return max(64, 4 * M)


def committed_length(M: int, horizon: int) -> int:
    """The prefix length color_prefix commits: the least n0 * 2**j >= horizon."""
    n0 = phase_base(M)
    return n0 << (max(0, horizon - 1) // n0).bit_length()


def _phase_events(
    stream: ConstraintStream,
    committed: bytearray,
    window: int,
    event_of: list[Event | None],
    phase: int,
) -> list[Event]:
    """The events of every unresolved constraint inside the window.

    ``event_of[j]`` is constraint j's one event, its whole domain with both
    constant rows, or None once the committed bits meet the constraint.
    """
    events: list[Event] = []
    pinned: dict[int, tuple[int, int]] = {}
    prefix = len(committed)
    for j, dom in enumerate(stream.items):
        event = event_of[j]
        if event is None or dom[-1] >= window:
            continue
        cut = bisect_left(dom, prefix)
        if not stream.is_violated(j, committed, cut):
            event_of[j] = None
            continue
        if cut == len(dom):
            raise ConstructionFailureError(
                phase, (j,), "constraint violated on its committed positions"
            )
        # one committed color and one uncommitted position pin that position
        if 0 < cut == len(dom) - 1:
            color = committed[dom[0]]
            prior = pinned.get(dom[-1])
            if prior is not None and prior[0] != color:
                raise ConstructionFailureError(
                    phase,
                    (prior[1], j),
                    f"constraints pin position {dom[-1]} to opposite bits",
                )
            pinned[dom[-1]] = (color, j)
        events.append(event)
    return events


def color_prefix(stream: ConstraintStream, horizon: int, seed: int) -> Coloring:
    """Commit a prefix of length >= horizon on which every set whose domain
    fits inside the committed region receives both colors.

    Deterministic in (stream, seed); callers are expected to have passed
    validate_sparsity over the horizon window first.
    """
    if horizon < 1:
        raise InvalidParameterError("horizon must be at least 1")
    n0 = phase_base(stream.M)
    final = committed_length(stream.M, horizon)
    slack = math.ceil(1 / (1 - stream.q))
    committed = bytearray()
    rows = {m: ((0,) * m, (1,) * m) for m in set(map(len, stream.items))}
    # the stream's constructor refuses a domain that is not strictly
    # increasing, and the two constant rows are sorted, so the trusted
    # constructor is safe here
    event_of = [_trusted_event(j, dom, rows[len(dom)]) for j, dom in enumerate(stream.items)]
    k = 1
    while len(committed) < final:
        window = n0 << k
        target = n0 << (k - 1)
        events = _phase_events(stream, committed, window, event_of, k)
        prefix = len(committed)
        committed += b"0" * (target - prefix)
        if events:
            var_ids = sorted(set().union(*(e.vbl for e in events)))
            variables = [
                fair_bit(n) if n >= prefix else VarSpec(n, 2, _POINT_MASS[committed[n]])
                for n in var_ids
            ]
            budget = default_budget(len(events)) * slack
            try:
                result = solve_moser_tardos(events, variables, derive_seed(seed, k), budget)
            except UnsatisfiableEventError as exc:
                raise ConstructionFailureError(
                    k, (exc.event_id,), "constraint forbids its whole cube"
                ) from exc
            except NonConvergenceError as exc:
                raise ConstructionFailureError(
                    k,
                    tuple(exc.violated),
                    f"resampling budget exhausted after {exc.resamplings} steps",
                ) from exc
            for n, v in result.values.items():
                if prefix <= n < target:
                    committed[n] = _ZERO + v
        k += 1
    bits = committed.decode("ascii")
    return Coloring(bits, seed, stream.fingerprint(), n0, k - 1)


def extend_coloring(
    coloring: Coloring, stream: ConstraintStream, new_horizon: int
) -> Coloring:
    """Re-run the phase schedule to a larger horizon; the input's committed
    bits are reproduced exactly or the extension fails loudly."""
    if coloring.stream_fingerprint != stream.fingerprint():
        raise WrongStreamError(
            f"coloring was built against stream {coloring.stream_fingerprint}, "
            f"not {stream.fingerprint()}"
        )
    if new_horizon <= coloring.committed_len:
        raise InvalidParameterError("new horizon must exceed the committed length")
    out = color_prefix(stream, new_horizon, coloring.seed)
    if not out.bits.startswith(coloring.bits):
        raise LLLColorError("prefix stability violated; this is a bug")
    return out
