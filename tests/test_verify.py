"""The pipeline audit, its agreement with ``lllcolor verify``, and Monte
Carlo probability sanity."""

import json
import math
import statistics
import tracemalloc
from fractions import Fraction

import pytest

from lllcolor.cli import main
from lllcolor.colorer import color_prefix
from lllcolor.errors import InvalidParameterError, WrongStreamError
from lllcolor.hindman import (
    StagedFamily,
    _first_selected,
    _selection_timeline,
    build_image_stream,
    build_translate_stream,
    builtin_addition_like,
    gen_family,
)
from lllcolor.streams import Coloring, format_coloring, format_manifest
from lllcolor.verify import (
    audit_solution,
    monte_carlo_homogeneity,
    sparsity_counts_csv,
    write_sparsity_csv,
)

F = Fraction
SUM = builtin_addition_like("sum")
ABSDIFF = builtin_addition_like("absdiff")


class TestAuditSolution:
    def comp_setup(self, members=4, stages=128, M=4, seed=6):
        sizes = tuple(M + i + 6 for i in range(members))
        fam = gen_family(seed, members, stages, "ce", sizes)
        stream = build_translate_stream(fam, M)
        col = color_prefix(stream, 512, seed)
        return fam, stream, col, M

    def test_comp_zero_violations(self):
        fam, stream, col, M = self.comp_setup()
        report = audit_solution(col, fam, SUM, stream=stream)
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

    def test_every_audited_translate_is_broken(self):
        fam = gen_family(4, 1, 128, "ce", (20,))
        stream = build_translate_stream(fam, 16)
        col = color_prefix(stream, 512, 3)
        timeline = _selection_timeline(fam, 0, 16)
        core = timeline[_first_selected(timeline)][0]
        emitted = {s for _, s in stream.provenance}
        translates_ok = 0
        for s in sorted(emitted):
            positions = [x + s for x in core]
            if min(positions) >= 64 and max(positions) < col.committed_len:
                assert len({col.bits[n] for n in positions}) == 2
                translates_ok += 1
        assert translates_ok > 50

    def test_planted_violation_agrees_with_verify(self, tmp_path, capsys):
        fam, stream, col, M = self.comp_setup()
        guard = 64  # phase_base(4)
        # the first translate inside [guard, committed_len) emitted at or
        # after its member's first selected stage
        for j, (i, s) in enumerate(stream.provenance):
            timeline = _selection_timeline(fam, i, M + i)
            dom = stream.dom(j)
            if s >= _first_selected(timeline) and dom[0] >= guard and dom[-1] < col.committed_len:
                break
        bits = list(col.bits)
        for n in dom:
            bits[n] = "0"
        bad = Coloring("".join(bits), col.seed, col.stream_fingerprint, col.n0, col.phases)

        report = audit_solution(bad, fam, SUM, stream=stream)
        assert not report.ok
        assert (s, dom) in report.members[i].violations

        (tmp_path / "stream.txt").write_text(format_manifest(stream))
        (tmp_path / "coloring.txt").write_text(format_coloring(bad))
        capsys.readouterr()
        rc = main(["verify", "--coloring", str(tmp_path / "coloring.txt"),
                   "--stream", str(tmp_path / "stream.txt")])
        assert rc == 1
        captured = capsys.readouterr()
        total = captured.out.strip().splitlines()[-1]
        listed = captured.err.strip().splitlines()[-1]
        assert listed.startswith("violated constraint ids: ")
        verify_ids = set(json.loads(listed.split(": ", 1)[1]))
        # verify prints at most ten ids; the comparison needs all of them
        assert total.endswith(f", {len(verify_ids)} violated")

        # every constraint the audit checks, and the ones it flags
        audited = set()
        flagged = set()
        for k, (member, stage) in enumerate(stream.provenance):
            verdict = report.members[member]
            positions = stream.dom(k)
            if (not verdict.vacuous and stage >= verdict.stable_since
                    and positions[0] >= guard and positions[-1] < bad.committed_len):
                audited.add(k)
                if (stage, positions) in verdict.violations:
                    flagged.add(k)
        assert len(audited) == report.translates_checked
        assert j in flagged
        assert flagged == verify_ids & audited
        assert len(flagged) == report.violations_total

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
        report = audit_solution(col, fam, SUM, stream=stream)
        assert report.members[1].vacuous
        assert report.members[1].bound == 5

    def test_main_mode_absdiff_bound(self):
        members = 2
        M = 19
        sizes = tuple(2 * (M + i) + 6 for i in range(members))
        fam = gen_family(8, members, 512, "sigma2", sizes)
        stream = build_image_stream(fam, ABSDIFF, M)
        col = color_prefix(stream, 1024, 2)
        report = audit_solution(col, fam, ABSDIFF, stream=stream)
        assert report.ok
        assert report.bound_rule == "2*(M+i)"
        assert [v.bound for v in report.members] == [38, 40]

    def test_member_with_no_checked_set_fails(self):
        # elements 990..997 appear at stage 1000 of 1024, so the member's
        # every translate starts past the 1024 committed bits
        fam = StagedFamily("ce", 1, 1024, (((1000, frozenset(range(990, 998))),),))
        stream = build_translate_stream(fam, 8)
        col = color_prefix(stream, 1024, 7)
        report = audit_solution(col, fam, SUM, stream=stream)
        (verdict,) = report.members
        assert not verdict.vacuous and verdict.translates_checked == 0
        assert report.violations_total == 0
        assert report.unchecked == (0,)
        assert not report.ok
        assert json.loads(report.to_json())["ok"] is False

    def test_wrong_stream_detected(self):
        fam, stream, col, M = self.comp_setup(seed=6)
        fam2, stream2, _, _ = self.comp_setup(seed=7)
        with pytest.raises(WrongStreamError):
            audit_solution(col, fam2, SUM, stream=stream2)

    def test_mode_mismatch_detected(self):
        # a ce family is audited by translates, which run over sum only
        fam, stream, col, M = self.comp_setup()
        with pytest.raises(WrongStreamError):
            audit_solution(col, fam, ABSDIFF, stream=stream)

    def test_guard_validation(self):
        # the audit starts past the first window of 64 bits, so a coloring
        # no longer than that window is refused
        fam, stream, col, M = self.comp_setup()
        first = Coloring(col.bits[:64], col.seed, col.stream_fingerprint, col.n0, col.phases)
        message = "^the audit start 64 lies outside the committed prefix$"
        with pytest.raises(InvalidParameterError, match=message):
            audit_solution(first, fam, SUM, stream=stream)

    def test_json_shape(self):
        fam, stream, col, M = self.comp_setup()
        text = audit_solution(col, fam, SUM, stream=stream).to_json()
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
    assert total == sum(len(stream.dom(j)) for j in range(len(stream)))


def test_sparsity_csv_is_written_in_blocks(tmp_path):
    # 204 800 rows over 50 sizes, a 1.46 MB CSV.  Building the whole text,
    # then writing it, peaked at 12.9 MB under tracemalloc; blocks of
    # 2 048 rows peak at 0.18 MB
    from lllcolor.streams import _BLOCK_LINES, SparsityReport

    counts = {m: [1 + (n * m) % 7 for n in range(4096)] for m in range(8, 58)}
    rep = SparsityReport(4096, 8, F(1, 2), counts, (), (), "none", 0, 57, 0)
    # the rows written out by hand, not by the writer under test
    text = "m,n,count\n" + "".join(
        f"{m},{n},{c}\n" for m in sorted(counts) for n, c in enumerate(counts[m])
    )
    blocks = []
    write_sparsity_csv(rep, blocks.append)
    assert "".join(blocks) == text == sparsity_counts_csv(rep)
    assert [b.count("\n") for b in blocks[:-1]] == [_BLOCK_LINES] * (len(blocks) - 1)
    with (tmp_path / "sparsity.csv").open("w", encoding="utf-8") as file:
        tracemalloc.start()
        try:
            write_sparsity_csv(rep, file.write)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert (tmp_path / "sparsity.csv").read_text(encoding="utf-8") == text
    assert peak < 400_000
