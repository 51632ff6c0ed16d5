"""Audits and sanity checks.

The solution audit re-derives each member's candidate set from the family,
re-walks every constraint the stream emitted for it, and judges each one
by its base and shift with ``single_color``, the check ``lllcolor verify``
runs.
The probability sanity check is honest Monte Carlo.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from fractions import Fraction

from .colorer import phase_base
from .errors import InvalidParameterError, WrongStreamError
from .hindman import MODE_CE, AdditionLike, StagedFamily, _selections
from .records import FrozenRecord
from .rng import u64
from .streams import Coloring, ConstraintStream, SparsityReport, single_color, write_blocks


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
        self._set(
            member, bound, stabilized, vacuous, elements, stable_since, first_emission,
            translates_checked, violations,
        )


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
        self._set(mode, bound_rule, guard, horizon, members, translates_checked, violations_total)

    @property
    def unchecked(self) -> tuple[int, ...]:
        """The members that are not vacuous but had no emitted set inside
        the audited region: the audit shows nothing for them."""
        return tuple(v.member for v in self.members if not v.vacuous and not v.translates_checked)

    @property
    def ok(self) -> bool:
        return self.violations_total == 0 and not self.unchecked

    def to_json(self) -> str:
        # json writes each tuple, nested ones too, as a list
        payload = dict(zip(self._fields, self._values()), ok=self.ok)
        payload["members"] = [dict(zip(v._fields, v._values())) for v in self.members]
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
    [guard, committed_len) may carry a single color, as
    ``single_color(base, bits, shift)`` judges it on the set's base and
    shift: each must carry both colors.  Members that never reach their
    size threshold get a vacuous verdict: they are already smaller than
    the reported bound.  ``stream`` is the stream the coloring was built
    against; it must carry emission provenance.
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

    bases, base_ids, shifts = stream.bases, stream.base_ids, stream.shifts
    by_member: dict[int, list[int]] = {}
    for j, i in enumerate(stream.emitted_by):
        by_member.setdefault(i, []).append(j)

    verdicts: list[MemberVerdict] = []
    total_checked = 0
    total_violations = 0
    for i in range(family.count):
        k = b * (stream.M + i)
        # a ce member's one nonempty selection is its last, so both modes
        # audit from the stage the final selection was made
        active_from, final_sel = _selections(family, i, k)[-1]
        if not final_sel:
            verdicts.append(
                MemberVerdict(i, k, False, True, (), None, None, 0, ()))
            continue
        checked = 0
        violations: list[tuple[int, tuple[int, ...]]] = []
        first_emission = None
        for j in by_member.get(i, ()):
            stage = emitted_at[j]
            if stage < active_from:
                continue
            base, shift = bases[base_ids[j]], shifts[j]
            if first_emission is None or stage < first_emission:
                first_emission = stage
            if shift < guard or shift + base[-1] >= coloring.committed_len:
                continue
            checked += 1
            if single_color(base, coloring.bits, shift):
                violations.append((stage, stream.dom(j)))
        total_checked += checked
        total_violations += len(violations)
        verdicts.append(
            MemberVerdict(
                i,
                k,
                True,
                False,
                final_sel,
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
