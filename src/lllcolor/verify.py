"""Audits and sanity checks.

The solution audit re-derives each member's candidate set from the family,
re-walks every constraint the stream emitted for it, and judges each one
with ``ConstraintStream.is_violated``, the check ``lllcolor verify`` runs.
The probability sanity check is honest Monte Carlo.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from fractions import Fraction

from .colorer import phase_base
from .errors import InvalidParameterError, WrongStreamError
from .hindman import (
    MODE_CE,
    AdditionLike,
    StagedFamily,
    _first_selected,
    _selection_timeline,
)
from .records import FrozenRecord
from .rng import u64
from .streams import Coloring, ConstraintStream, SparsityReport, write_blocks


class MemberVerdict(FrozenRecord):
    __slots__ = _fields = (
        "member", "bound", "stabilized", "vacuous", "elements", "stable_since",
        "first_emission", "translates_checked", "violations",
    )

    def __init__(
        self,
        member: int,
        bound: int,
        stabilized: bool,
        vacuous: bool,
        elements: tuple[int, ...],
        stable_since: int | None,
        first_emission: int | None,
        translates_checked: int,
        violations: tuple[tuple[int, tuple[int, ...]], ...],
    ):
        object.__setattr__(self, "member", member)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "stabilized", stabilized)
        object.__setattr__(self, "vacuous", vacuous)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "stable_since", stable_since)
        object.__setattr__(self, "first_emission", first_emission)
        object.__setattr__(self, "translates_checked", translates_checked)
        object.__setattr__(self, "violations", violations)


class AuditReport(FrozenRecord):
    """Per-member verdicts tying a coloring back to the enumerated family it
    was built against: no audited translate may be single-colored, so no
    candidate set extends to a solution witnessed inside the audited
    region.  The audit is ``ok`` only if, besides, every member that is not
    vacuous had a set checked."""

    __slots__ = _fields = (
        "mode", "bound_rule", "guard", "horizon", "members", "translates_checked",
        "violations_total",
    )

    def __init__(
        self,
        mode: str,
        bound_rule: str,
        guard: int,
        horizon: int,
        members: tuple[MemberVerdict, ...],
        translates_checked: int,
        violations_total: int,
    ):
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "bound_rule", bound_rule)
        object.__setattr__(self, "guard", guard)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "translates_checked", translates_checked)
        object.__setattr__(self, "violations_total", violations_total)

    @property
    def unchecked(self) -> tuple[int, ...]:
        """The members that are not vacuous but had no emitted set inside
        the audited region: the audit shows nothing for them."""
        return tuple(v.member for v in self.members if not v.vacuous and not v.translates_checked)

    @property
    def ok(self) -> bool:
        return self.violations_total == 0 and not self.unchecked

    def to_json(self) -> str:
        payload = {
            "mode": self.mode,
            "bound_rule": self.bound_rule,
            "guard": self.guard,
            "horizon": self.horizon,
            "translates_checked": self.translates_checked,
            "violations_total": self.violations_total,
            "ok": self.ok,
            "members": [
                {
                    "member": v.member,
                    "bound": v.bound,
                    "stabilized": v.stabilized,
                    "vacuous": v.vacuous,
                    "elements": list(v.elements),
                    "stable_since": v.stable_since,
                    "first_emission": v.first_emission,
                    "translates_checked": v.translates_checked,
                    "violations": [[s, list(pos)] for s, pos in v.violations],
                }
                for v in self.members
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def audit_solution(
    coloring: Coloring, family: StagedFamily, fn: AdditionLike, *, stream: ConstraintStream
) -> AuditReport:
    """Re-check every emitted constraint of a pipeline against the coloring.

    The rule follows ``family.mode``: a ce family gives a translate
    ("comp") audit with bound ``M + i``, a sigma2 family an image ("main")
    audit with bound ``fn.mult_bound * (M + i)``, with ``M = stream.M``.
    The audit starts past the colorer's first window, at
    ``guard = phase_base(M)``, which must lie inside the committed prefix.
    For each member whose candidate set is defined (translate mode, from its
    first selected stage) or has settled by the final stage (image mode,
    from that settling stage), no emitted set lying fully inside
    [guard, committed_len) may be violated in the sense of
    ``stream.is_violated``: each must carry both colors.  Members that never
    reach their size threshold get a vacuous verdict: they are already
    smaller than the reported bound.  ``stream`` is the stream the coloring
    was built against; it must carry emission provenance.
    """
    guard = phase_base(stream.M)
    if guard >= coloring.committed_len:
        raise InvalidParameterError(f"the audit start {guard} lies outside the committed prefix")
    if family.mode == MODE_CE:
        if fn.name != "sum":
            raise WrongStreamError("translate audits run over the sum pair function")
        mode, b, bound_rule = "comp", 1, "M+i"
    else:
        b = fn.mult_bound
        mode, bound_rule = "main", f"{b}*(M+i)"
    if stream.fingerprint() != coloring.stream_fingerprint:
        raise WrongStreamError("coloring was produced against a different stream")
    emitted_at = stream.emitted_at
    if emitted_at is None:
        raise WrongStreamError("audited stream lacks emission provenance")

    by_member: dict[int, list[int]] = {}
    for j, i in enumerate(stream.emitted_by):
        by_member.setdefault(i, []).append(j)

    verdicts: list[MemberVerdict] = []
    total_checked = 0
    total_violations = 0
    for i in range(family.count):
        k = b * (stream.M + i)
        timeline = _selection_timeline(family, i, k)
        final_sel, final_since = timeline[-1]
        if not final_sel:
            verdicts.append(
                MemberVerdict(i, k, False, True, (), None, None, 0, ()))
            continue
        active_from = _first_selected(timeline) if mode == "comp" else final_since
        checked = 0
        violations: list[tuple[int, tuple[int, ...]]] = []
        first_emission = None
        for j in by_member.get(i, ()):
            stage = emitted_at[j]
            if stage < active_from:
                continue
            base, shift = stream.base_shift(j)
            if first_emission is None or stage < first_emission:
                first_emission = stage
            if shift < guard or shift + base[-1] >= coloring.committed_len:
                continue
            checked += 1
            if stream.is_violated(j, coloring.bits):
                violations.append((stage, stream.dom(j)))
        total_checked += checked
        total_violations += len(violations)
        verdicts.append(
            MemberVerdict(
                i,
                k,
                True,
                False,
                tuple(sorted(final_sel)),
                active_from,
                first_emission,
                checked,
                tuple(violations),
            )
        )
    return AuditReport(
        mode=mode,
        bound_rule=bound_rule,
        guard=guard,
        horizon=coloring.committed_len,
        members=tuple(verdicts),
        translates_checked=total_checked,
        violations_total=total_violations,
    )


def monte_carlo_homogeneity(f_size: int, trials: int, seed: int) -> Fraction:
    """Fraction of uniformly random 2-colorings of an f_size-set that are
    constant; deterministic in the seed."""
    if f_size < 1:
        raise InvalidParameterError("set size must be positive")
    if trials < 1:
        raise InvalidParameterError("trials must be positive")
    hits = 0
    if f_size <= 64:
        mask = (1 << f_size) - 1
        for t in range(trials):
            word = u64(seed, 71, t) & mask
            if word == 0 or word == mask:
                hits += 1
    else:
        words = -(-f_size // 64)
        for t in range(trials):
            bits = 0
            for w in range(words):
                bits |= u64(seed, 71, t, w) << (64 * w)
            bits &= (1 << f_size) - 1
            if bits == 0 or bits == (1 << f_size) - 1:
                hits += 1
    return Fraction(hits, trials)


def _sparsity_rows(report: SparsityReport):
    yield "m,n,count\n"
    for m in sorted(report.counts):
        for n, c in enumerate(report.counts[m]):
            if c:
                yield f"{m},{n},{c}\n"


def write_sparsity_csv(report: SparsityReport, write: Callable[[str], object]) -> None:
    """Hand the per-(size, position) nonzero counts, one CSV row each, for
    plotting, to ``write`` in blocks of whole lines."""
    write_blocks(_sparsity_rows(report), write)


def sparsity_counts_csv(report: SparsityReport) -> str:
    """The CSV text :func:`write_sparsity_csv` writes, as one string."""
    blocks: list[str] = []
    write_sparsity_csv(report, blocks.append)
    return "".join(blocks)
