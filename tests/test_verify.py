"""Audit-side oracles: pair homogeneity, exhaustive subset search, the
pipeline audit, and Monte Carlo probability sanity."""

import itertools
import math
import statistics
from fractions import Fraction

import pytest

from lllcolor.colorer import color_prefix
from lllcolor.errors import (
    InsufficientHorizonError,
    InvalidInputError,
    InvalidParameterError,
    WrongStreamError,
)
from lllcolor.hindman import (
    build_image_stream,
    build_translate_stream,
    builtin_addition_like,
    gen_family,
)
from lllcolor.streams import Coloring
from lllcolor.verify import (
    audit_solution,
    find_homogeneous_subset,
    is_homogeneous,
    monte_carlo_homogeneity,
    sparsity_counts_csv,
)

F = Fraction
SUM = builtin_addition_like("sum")
ABSDIFF = builtin_addition_like("absdiff")


def coloring_of(bits):
    return Coloring(bits, 0, "", 64, 0)


class TestIsHomogeneous:
    def test_pairs_always_homogeneous(self):
        col = coloring_of("0110011001")
        assert is_homogeneous({1, 4}, SUM, col)

    def test_three_elements_pattern(self):
        # pair sums of {0,1,2} are 1, 2, 3 with colors 0, 1, 1
        col = coloring_of("0011" * 4)
        assert not is_homogeneous({0, 1, 2}, SUM, col)

    def test_constant_region_homogeneous(self):
        col = coloring_of("1" * 32)
        assert is_homogeneous({0, 1, 2, 3, 4}, SUM, col)

    def test_listing_order_invariance(self):
        col = coloring_of("01101001" * 8)
        for perm in itertools.permutations((2, 5, 9)):
            assert is_homogeneous(list(perm), SUM, col) == is_homogeneous(
                (2, 5, 9), SUM, col
            )

    def test_needs_two_elements(self):
        with pytest.raises(InvalidInputError):
            is_homogeneous({3}, SUM, coloring_of("0000"))

    def test_horizon_guard(self):
        with pytest.raises(InsufficientHorizonError):
            is_homogeneous({3, 4}, SUM, coloring_of("0000"))


class TestFindHomogeneousSubset:
    def exhaustive(self, window, fn, col, size):
        for combo in itertools.combinations(range(window), size):
            if size < 2 or is_homogeneous(combo, fn, col):
                return combo
        return None

    def test_constant_coloring_returns_prefix(self):
        col = coloring_of("0" * 64)
        assert find_homogeneous_subset(8, SUM, col, 5) == (0, 1, 2, 3, 4)

    def test_pairs_always_found(self):
        col = coloring_of("0110100110010110" * 4)
        assert find_homogeneous_subset(4, SUM, col, 2) == (0, 1)

    def test_agrees_with_exhaustive_enumeration(self):
        for pattern in ("0011011000111001", "0101101001011010"):
            col = coloring_of(pattern * 4)
            for window, size in ((8, 3), (10, 4), (12, 4)):
                got = find_homogeneous_subset(window, SUM, col, size)
                brute = self.exhaustive(window, SUM, col, size)
                assert (got is None) == (brute is None)
                if got is not None:
                    assert got == brute  # both scan lexicographically
                    assert is_homogeneous(got, SUM, col)

    def test_every_audited_translate_is_broken(self):
        from lllcolor.hindman import candidate_state

        fam = gen_family(4, 1, 128, "ce", (20,))
        stream = build_translate_stream(fam, 16)
        col = color_prefix(stream, 512, 3)
        core = candidate_state(fam, SUM, 16, 0, 127).elements
        emitted = {s for _, s in stream.provenance}
        translates_ok = 0
        for s in sorted(emitted):
            positions = [x + s for x in core]
            if min(positions) >= 64 and max(positions) < col.committed_len:
                assert len({col.bits[n] for n in positions}) == 2
                translates_ok += 1
        assert translates_ok > 50

    def test_horizon_guard(self):
        with pytest.raises(InsufficientHorizonError):
            find_homogeneous_subset(10, SUM, coloring_of("0000"), 3)


class TestAuditSolution:
    def comp_setup(self, members=4, stages=128, M=4, seed=6):
        sizes = tuple(M + i + 6 for i in range(members))
        fam = gen_family(seed, members, stages, "ce", sizes)
        stream = build_translate_stream(fam, M)
        col = color_prefix(stream, 512, seed)
        return fam, stream, col, M

    def test_comp_zero_violations(self):
        fam, stream, col, M = self.comp_setup()
        report = audit_solution(col, fam, SUM, M, 64, stream=stream)
        assert report.ok
        assert report.translates_checked > 100
        assert report.bound_rule == "M+i"
        # re-scan independently
        for verdict in report.members:
            for j, (i, s) in enumerate(stream.provenance):
                if i != verdict.member:
                    continue
                dom = stream.dom(j)
                if dom[0] >= 64 and dom[-1] < col.committed_len:
                    assert len({col.bits[n] for n in dom}) == 2

    def test_vacuous_member_reported(self):
        from lllcolor.hindman import StagedFamily

        fam = StagedFamily(
            "ce", 2, 64,
            (
                ((10, frozenset({0, 1, 2, 3, 4, 5, 6, 7, 8, 9})),),
                ((5, frozenset({1, 2})),),  # below threshold 4 + 1
            ),
        )
        stream = build_translate_stream(fam, 4)
        col = color_prefix(stream, 256, 1)
        report = audit_solution(col, fam, SUM, 4, 64, stream=stream)
        assert report.members[1].vacuous
        assert report.members[1].bound == 5

    def test_main_mode_absdiff_bound(self):
        members = 2
        M = 19
        sizes = tuple(2 * (M + i) + 6 for i in range(members))
        fam = gen_family(8, members, 512, "sigma2", sizes)
        stream = build_image_stream(fam, ABSDIFF, M)
        col = color_prefix(stream, 1024, 2)
        report = audit_solution(col, fam, ABSDIFF, M, 64, stream=stream)
        assert report.ok
        assert report.bound_rule == "2*(M+i)"
        assert [v.bound for v in report.members] == [38, 40]

    def test_wrong_stream_detected(self):
        fam, stream, col, M = self.comp_setup(seed=6)
        fam2, stream2, _, _ = self.comp_setup(seed=7)
        with pytest.raises(WrongStreamError):
            audit_solution(col, fam2, SUM, M, 64, stream=stream2)

    def test_mode_mismatch_detected(self):
        # a ce family is audited by translates, which run over sum only
        fam, stream, col, M = self.comp_setup()
        with pytest.raises(WrongStreamError):
            audit_solution(col, fam, ABSDIFF, M, 64, stream=stream)

    def test_guard_validation(self):
        fam, stream, col, M = self.comp_setup()
        with pytest.raises(InvalidParameterError):
            audit_solution(col, fam, SUM, M, col.committed_len, stream=stream)

    def test_json_shape(self):
        fam, stream, col, M = self.comp_setup()
        text = audit_solution(col, fam, SUM, M, 64, stream=stream).to_json()
        assert '"violations_total": 0' in text
        assert '"bound_rule": "M+i"' in text


class TestMonteCarlo:
    def test_single_cell_always_constant(self):
        assert monte_carlo_homogeneity(1, 500, 0) == 1

    def test_two_cells_near_half(self):
        est = monte_carlo_homogeneity(2, 40000, 1)
        assert abs(float(est) - 0.5) < 0.02

    def test_eight_cells_three_sigma(self):
        p = 2 ** -7
        sigma = math.sqrt(p * (1 - p) / 100000)
        for seed in range(1, 6):
            est = monte_carlo_homogeneity(8, 100000, seed)
            assert abs(float(est) - p) <= 3 * sigma

    def test_deterministic(self):
        assert monte_carlo_homogeneity(8, 5000, 3) == monte_carlo_homogeneity(8, 5000, 3)

    def test_variance_scales_inversely_with_trials(self):
        p = 2 ** -7
        for trials in (25000, 50000):
            ests = [float(monte_carlo_homogeneity(8, trials, s)) for s in range(20)]
            theory = p * (1 - p) / trials
            observed = statistics.pvariance(ests)
            assert theory / 3 <= observed <= theory * 3

    def test_wide_sets(self):
        est = monte_carlo_homogeneity(80, 2000, 5)
        assert est == 0  # probability 2^-79 never observed


def test_sparsity_csv_lists_nonzero_cells():
    from lllcolor.streams import gen_sets_stream, validate_sparsity

    stream = gen_sets_stream(2, 10, 256, 4)
    rep = validate_sparsity(stream, 256)
    csv = sparsity_counts_csv(rep)
    lines = csv.strip().splitlines()
    assert lines[0] == "m,n,count"
    total = sum(int(line.split(",")[2]) for line in lines[1:])
    assert total == sum(stream.size(j) for j in range(len(stream)))
