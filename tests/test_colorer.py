"""Phased colorer: constraint satisfaction inside the committed prefix,
prefix stability, determinism, and honest failure modes."""

import math
import tracemalloc
from bisect import bisect_left
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lllcolor import cli
from lllcolor.cli import main
from lllcolor.colorer import color_prefix, committed_length, extend_coloring, phase_base
from lllcolor.errors import (
    ConstructionFailureError,
    InvalidParameterError,
    NonConvergenceError,
    UnsatisfiableEventError,
    WrongStreamError,
)
from lllcolor.hindman import build_translate_stream, gen_family
from lllcolor.lll import Event, default_budget, fair_bit, solve_moser_tardos
from lllcolor.rng import derive_seed
from lllcolor.streams import ConstraintStream, gen_sets_stream
from test_golden import PIPELINES, golden_sets

F = Fraction


def empty_stream(M=16):
    return ConstraintStream(M, F(1, 2), ())


def restricted_color_prefix(stream, horizon, seed):
    """Reference colorer: each phase cuts every open constraint to its
    uncommitted tail, keeps the constant rows the committed bits leave open,
    and resamples fair bits on the tails alone.  Returns the committed bits."""
    n0 = phase_base(stream.M)
    slack = math.ceil(1 / (1 - stream.q))
    committed = bytearray()
    resolved = set()
    k = 1
    while len(committed) < committed_length(stream.M, horizon):
        window, target, prefix = n0 << k, n0 << (k - 1), len(committed)
        events, pinned = [], {}
        for j, dom in enumerate(stream.items):
            if j in resolved or dom[-1] >= window:
                continue
            cut = bisect_left(dom, prefix)
            live = [row for row in (b"0" * len(dom), b"1" * len(dom))
                    if all(committed[n] == row[0] for n in dom[:cut])]
            if not live:
                resolved.add(j)
                continue
            tail = dom[cut:]
            if not tail:
                raise ConstructionFailureError(
                    k, (j,), "constraint violated on its committed positions"
                )
            rows = [tuple(b - ord("0") for b in row[cut:]) for row in live]
            if len(tail) == 1 and len(rows) == 1:
                forced = 1 - rows[0][0]
                prior = pinned.get(tail[0])
                if prior is not None and prior[0] != forced:
                    raise ConstructionFailureError(
                        k, (prior[1], j), f"constraints pin position {tail[0]} to opposite bits"
                    )
                pinned[tail[0]] = (forced, j)
            events.append(Event(j, tail, rows))
        committed += b"0" * (target - prefix)
        if events:
            variables = [fair_bit(n) for n in sorted({n for e in events for n in e.vbl})]
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
                    committed[n] = ord("0") + v
        k += 1
    return committed.decode("ascii")


def outcome(color, stream, horizon, seed):
    """The bits a colorer commits, or the phase, ids and message it fails with."""
    try:
        out = color(stream, horizon, seed)
    except ConstructionFailureError as exc:
        return exc.phase, exc.constraint_ids, str(exc)
    return out if isinstance(out, str) else out.bits


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
        stream = ConstraintStream(16, F(1, 2), (tuple(range(16)),))
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
                items.append(tuple(range(center - 8, center + 8)))
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
        stream = ConstraintStream(1, F(1, 2), ((3,),))
        with pytest.raises(ConstructionFailureError) as exc:
            color_prefix(stream, 8, 0)
        assert exc.value.constraint_ids == (0,)
        assert "constraint forbids its whole cube" in str(exc.value)


def test_phase_base():
    assert phase_base(1) == 64
    assert phase_base(16) == 64
    assert phase_base(32) == 128


@pytest.mark.parametrize("M", [4, 20])
@pytest.mark.parametrize("horizon", [1, 63, 64, 65, 80, 81, 700, 1024])
def test_committed_length_is_what_color_prefix_commits(M, horizon):
    empty = ConstraintStream(M, F(1, 2), ())
    assert committed_length(M, horizon) == color_prefix(empty, horizon, 3).committed_len



def colored_run(name, tmp_path, monkeypatch):
    """(stream, horizon, seed, coloring) of the one color_prefix call a
    golden config makes."""
    runs = []

    def spy(stream, horizon, seed):
        col = color_prefix(stream, horizon, seed)
        runs.append((stream, horizon, seed, col))
        return col

    if name == "expanded-sets":
        spy(golden_sets(), 512, 7)
    else:
        monkeypatch.setattr(cli, "color_prefix", spy)
        assert main(PIPELINES[name][0] + ["--out", str(tmp_path)]) == 0
    assert len(runs) == 1
    return runs[0]


class TestRestrictedReference:
    """Fixing the committed bits gives the bits that restricting every open
    constraint to its uncommitted tail gives, and the same failures."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        M=st.integers(2, 5),
        spread=st.integers(0, 2),
        horizon=st.integers(64, 1024),
        data=st.data(),
    )
    def test_generated_streams(self, seed, M, spread, horizon, data):
        # at most horizon // 8 sets keeps these streams colorable quickly
        count = data.draw(st.integers(0, horizon // 8), label="count")
        stream = gen_sets_stream(seed, count, horizon, M, spread=spread)
        assert outcome(color_prefix, stream, horizon, seed) == outcome(
            restricted_color_prefix, stream, horizon, seed
        )

    @pytest.mark.parametrize("name", sorted(PIPELINES))
    def test_golden_pipeline_streams(self, name, tmp_path, monkeypatch):
        stream, horizon, seed, col = colored_run(name, tmp_path, monkeypatch)
        assert col.bits == restricted_color_prefix(stream, horizon, seed)

    def test_triangle_fails_alike(self):
        stream = ConstraintStream(2, F(1, 2), ((0, 1), (0, 200), (1, 200)))
        got = outcome(color_prefix, stream, 256, 3)
        assert got == outcome(restricted_color_prefix, stream, 256, 3)
        assert got == (
            2, (1, 2), "phase 2: constraints pin position 200 to opposite bits (constraints [1, 2])"
        )


def test_color_prefix_peak_memory():
    # comp/sum translates, M = 8, 50 members over 4096, seed 7 (4 177 sets):
    # the set core peaks near 0.9 MB; an Event per set and a VarSpec per
    # position of each phase peaked near 1.9 MB
    M, members = 8, 50
    sizes = tuple(M + i + 8 for i in range(members))
    fam = gen_family(derive_seed(7, 1), members, 128, "ce", sizes)
    stream = build_translate_stream(fam, M, F(1, 2))
    stream.fingerprint()  # cmd_run has formatted the manifest before it colors
    tracemalloc.start()
    try:
        col = color_prefix(stream, 4096, derive_seed(7, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(stream) == 4177
    assert scan_sets(stream, col) == []
    assert peak < 1_400_000
