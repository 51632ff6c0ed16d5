"""Phase-committed online 2-coloring against a sparse constraint stream.

Windows double: N_k = n0 * 2**k with n0 = max(64, 4M).  Phase k gathers
every constraint whose domain fits inside [0, N_k), drops those already
satisfied by committed bits, restricts the rest to their uncommitted
positions ("all uncommitted positions disagree" is the bad event), and runs
the deterministic resampler over fair bits on the uncommitted region with a
phase-keyed seed.  On quiescence the prefix [0, N_{k-1}) commits; bits in
[N_{k-1}, N_k) stay resampleable for one more phase so straddling
constraints keep a wide uncommitted margin.

Positions never touched by any constraint default to 0, so an empty stream
yields the all-zero prefix.  A constraint whose uncommitted restriction
becomes unsatisfiable, a pair of constraints pinning one bit both ways, or
a resampling budget blow-up all raise ConstructionFailureError: the
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
from .lll import Event, _trusted_event, default_budget, fair_bit, solve_moser_tardos
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


def _phase_events(
    stream: ConstraintStream,
    committed: bytearray,
    window: int,
    resolved: bytearray,
    doms: list[tuple[int, ...]],
    maxs: list[int],
    phase: int,
) -> list[Event]:
    """Restricted bad events for every unresolved constraint inside the window.

    A constraint's bad event keeps the forbidden rows that agree with the
    committed bits, restricted to its uncommitted tail.
    """
    events: list[Event] = []
    pinned: dict[int, tuple[int, int]] = {}
    # equal restricted rows are built once per phase and shared by events,
    # which keeps the phase's memory bounded by distinct rows
    shared: dict[tuple[bytes, ...], tuple[tuple[int, ...], ...]] = {}
    prefix = len(committed)
    for j in range(len(stream)):
        if resolved[j] or maxs[j] >= window:
            continue
        dom = doms[j]
        cut = bisect_left(dom, prefix)
        live = stream.live_rows(j, committed, cut)
        if not live:
            resolved[j] = 1
            continue
        tail = dom[cut:]
        if not tail:
            raise ConstructionFailureError(
                phase, (j,), "constraint violated on its committed positions"
            )
        key = tuple([row[cut:] for row in live])
        rows = shared.get(key)
        if rows is None:
            rows = shared[key] = tuple(tuple(b - _ZERO for b in row) for row in key)
        # a two-row single-position tail forbids its whole cube: the resampler rejects it
        if len(tail) == 1 and len(rows) == 1:
            forced = 1 - rows[0][0]
            prior = pinned.get(tail[0])
            if prior is not None and prior[0] != forced:
                raise ConstructionFailureError(
                    phase,
                    (prior[1], j),
                    f"constraints pin position {tail[0]} to opposite bits",
                )
            pinned[tail[0]] = (forced, j)
        # tail is a slice of a sorted duplicate-free domain and the rows are
        # distinct and sorted, so the trusted constructor is safe here.
        events.append(_trusted_event(j, tail, rows))
    return events


def color_prefix(stream: ConstraintStream, horizon: int, seed: int) -> Coloring:
    """Commit a prefix of length >= horizon on which every constraint whose
    domain fits inside the committed region is met: every partial word
    agrees with the coloring somewhere, every set receives both colors.

    Deterministic in (stream, seed); callers are expected to have passed
    validate_sparsity over the horizon window first.
    """
    if horizon < 1:
        raise InvalidParameterError("horizon must be at least 1")
    n0 = phase_base(stream.M)
    final = committed_length(stream.M, horizon)
    slack = math.ceil(1 / (1 - stream.q))
    committed = bytearray()
    resolved = bytearray(len(stream))
    doms = [stream.dom(j) for j in range(len(stream))]
    maxs = [d[-1] for d in doms]
    k = 1
    while len(committed) < final:
        window = n0 << k
        target = n0 << (k - 1)
        events = _phase_events(stream, committed, window, resolved, doms, maxs, k)
        prefix = len(committed)
        committed += b"0" * (target - prefix)
        if events:
            var_ids = sorted({n for e in events for n in e.vbl})
            variables = [fair_bit(n) for n in var_ids]
            budget = default_budget(len(events)) * slack
            try:
                result = solve_moser_tardos(events, variables, derive_seed(seed, k), budget)
            except UnsatisfiableEventError as exc:
                raise ConstructionFailureError(
                    k, (exc.event_id,), "restricted constraint forbids its whole cube"
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
