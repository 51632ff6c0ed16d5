"""Phased colorer: constraint satisfaction inside the committed prefix,
prefix stability, determinism, and honest failure modes."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lllcolor import colorer
from lllcolor.cli import main
from lllcolor.colorer import color_prefix, committed_length, extend_coloring, phase_base
from lllcolor.errors import (
    ConstructionFailureError,
    InvalidParameterError,
    WrongStreamError,
)
from lllcolor.lll import Event
from lllcolor.streams import ConstraintStream, gen_sets_stream
from test_golden import PIPELINES, golden_sets

F = Fraction


def empty_stream(M=16):
    return ConstraintStream(M, F(1, 2), ())


def scan_sets(stream, coloring):
    """Independent re-check: ids of sets inside the prefix with one color."""
    bad = []
    for j in range(len(stream)):
        dom = stream.dom(j)
        if dom[-1] < coloring.committed_len:
            if len({coloring.bits[n] for n in dom}) == 1:
                bad.append(j)
    return bad


class TestColorPrefix:
    def test_empty_stream_all_zero(self):
        col = color_prefix(empty_stream(), 8, 123)
        assert col.committed_len >= 8
        assert set(col.bits) == {"0"}

    def test_single_set_gets_both_colors(self):
        stream = ConstraintStream(16, F(1, 2), (frozenset(range(16)),))
        col = color_prefix(stream, 64, 5)
        assert {col.bits[n] for n in range(16)} == {"0", "1"}

    def test_generated_streams_fully_satisfied(self):
        for seed in (0, 1):
            stream = gen_sets_stream(seed, 60, 1024, 16)
            col = color_prefix(stream, 1024, seed)
            assert scan_sets(stream, col) == []

    def test_generated_4_position_streams_fully_satisfied(self):
        # a random start leaves 1/8 of 4-position sets constant, and most
        # of these sets straddle a commit boundary, so the resampler and
        # the committed-prefix restriction both do real work
        for seed in (0, 1):
            stream = gen_sets_stream(seed, 150, 1024, 4, spread=0)
            col = color_prefix(stream, 1024, seed)
            assert scan_sets(stream, col) == []

    def test_determinism(self):
        stream = gen_sets_stream(7, 50, 512, 16)
        a = color_prefix(stream, 512, 3)
        b = color_prefix(stream, 512, 3)
        assert a == b

    def test_seed_changes_output(self):
        stream = gen_sets_stream(7, 50, 512, 16)
        a = color_prefix(stream, 512, 3)
        b = color_prefix(stream, 512, 4)
        assert a.bits != b.bits

    def test_committed_len_covers_horizon(self):
        stream = gen_sets_stream(2, 20, 512, 16)
        for horizon in (1, 65, 200, 1000):
            col = color_prefix(stream, horizon, 0)
            assert col.committed_len >= horizon
            assert len(col.bits) == col.committed_len

    def test_horizon_validation(self):
        with pytest.raises(InvalidParameterError):
            color_prefix(empty_stream(), 0, 0)


class TestPrefixStability:
    def test_boundary_straddling_constraints(self):
        # sets centered on every commit boundary keep their guarantee even
        # though half their positions freeze one phase before the rest
        items = []
        for boundary in (64, 128, 256, 512, 1024):
            for shift in (-3, 0, 3):
                center = boundary + shift
                items.append(frozenset(range(center - 8, center + 8)))
        stream = ConstraintStream(16, F(1, 2), tuple(items))
        for seed in range(4):
            col = color_prefix(stream, 2048, seed)
            assert scan_sets(stream, col) == []
            again = color_prefix(stream, 4096, seed)
            assert again.bits.startswith(col.bits)

    def test_doubling_horizons(self):
        stream = gen_sets_stream(11, 80, 2048, 16)
        cols = [color_prefix(stream, h, 21) for h in (256, 512, 1024, 2048)]
        for small, big in zip(cols, cols[1:]):
            assert big.bits.startswith(small.bits)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_stability_property(self, seed):
        stream = gen_sets_stream(seed % 5, 25, 512, 16)
        small = color_prefix(stream, 128, seed)
        big = color_prefix(stream, 512, seed)
        assert big.bits.startswith(small.bits)


class TestExtendColoring:
    def test_extends_exactly(self):
        stream = gen_sets_stream(4, 40, 1024, 16)
        col = color_prefix(stream, 256, 8)
        out = extend_coloring(col, stream, 1024)
        assert out.bits[: col.committed_len] == col.bits
        assert out.committed_len >= 1024
        assert scan_sets(stream, out) == []

    def test_wrong_stream_rejected(self):
        s1 = gen_sets_stream(1, 10, 512, 16)
        s2 = gen_sets_stream(2, 10, 512, 16)
        col = color_prefix(s1, 128, 0)
        with pytest.raises(WrongStreamError):
            extend_coloring(col, s2, 512)

    def test_new_horizon_must_grow(self):
        stream = gen_sets_stream(1, 10, 512, 16)
        col = color_prefix(stream, 128, 0)
        with pytest.raises(InvalidParameterError):
            extend_coloring(col, stream, col.committed_len)

    @pytest.mark.parametrize("h1, h2", [(128, 1024), (256, 512)])
    def test_resume_from_file_matches_rebuild(self, h1, h2):
        # a coloring saved to text and read back extends to the bits a
        # fresh run to the larger horizon commits
        from lllcolor.streams import format_coloring, parse_coloring

        stream = gen_sets_stream(0, 150, 1024, 4, spread=0)
        saved = parse_coloring(format_coloring(color_prefix(stream, h1, 5)))
        assert extend_coloring(saved, stream, h2) == color_prefix(stream, h2, 5)

    def test_extend_empty_stream_appends_zeros(self):
        stream = empty_stream()
        col = color_prefix(stream, 64, 0)
        out = extend_coloring(col, stream, 256)
        assert set(out.bits) == {"0"}
        assert out.committed_len >= 256


class TestConstructionFailures:
    def test_triangle_pins_one_position_both_ways(self):
        # no 2-coloring gives all three 2-sets both colors: phase 1 commits
        # distinct bits at 0 and 1, so in phase 2 the other two sets each
        # pin position 200, to opposite bits
        stream = ConstraintStream(2, F(1, 2), ((0, 1), (0, 200), (1, 200)))
        for seed in range(5):
            with pytest.raises(ConstructionFailureError) as exc:
                color_prefix(stream, 256, seed)
            assert exc.value.phase == 2
            assert exc.value.constraint_ids == (1, 2)
            assert "constraints pin position 200 to opposite bits" in str(exc.value)

    def test_single_position_set_is_impossible(self):
        stream = ConstraintStream(1, F(1, 2), (frozenset({3}),))
        with pytest.raises(ConstructionFailureError) as exc:
            color_prefix(stream, 8, 0)
        assert exc.value.constraint_ids == (0,)
        assert "restricted constraint forbids its whole cube" in str(exc.value)


def test_phase_base():
    assert phase_base(1) == 64
    assert phase_base(16) == 64
    assert phase_base(32) == 128


@pytest.mark.parametrize("M", [4, 20])
@pytest.mark.parametrize("horizon", [1, 63, 64, 65, 80, 81, 700, 1024])
def test_committed_length_is_what_color_prefix_commits(M, horizon):
    empty = ConstraintStream(M, F(1, 2), ())
    assert committed_length(M, horizon) == color_prefix(empty, horizon, 3).committed_len



@pytest.mark.parametrize("name", [*sorted(PIPELINES), "expanded-sets"])
def test_phase_events_are_canonical_bits(name, tmp_path, monkeypatch):
    # _phase_events builds its events with _trusted_event, which skips
    # Event's canonicalization: on the golden configs they must come out
    # canonical and 0/1 already
    seen = []
    phase_events = colorer._phase_events

    def spy(*args):
        events = phase_events(*args)
        seen.extend(events)
        return events

    monkeypatch.setattr(colorer, "_phase_events", spy)
    if name == "expanded-sets":
        color_prefix(golden_sets(), 512, 7)
    else:
        assert main(PIPELINES[name][0] + ["--out", str(tmp_path)]) == 0
    assert seen
    for e in seen:
        assert e == Event(e.id, e.vbl, e.forbidden)
        assert {v for row in e.forbidden for v in row} <= {0, 1}
