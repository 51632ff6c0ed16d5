"""Addition-like functions, staged families, candidate selection, the two
stream builders, and the warm-up demonstrations."""

import tracemalloc
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lllcolor.errors import (
    InvalidInputError,
    InvalidParameterError,
    ParseError,
    StreamIntegrityError,
)
from lllcolor.hindman import (
    AdditionLike,
    StagedFamily,
    _diagonal_pairs,
    _first_selected,
    _selection_timeline,
    baseline_coloring,
    build_image_stream,
    build_translate_stream,
    builtin_addition_like,
    choose_M,
    format_family,
    gen_family,
    parse_family,
    pigeonhole_check,
)
from lllcolor.rng import derive_seed
from lllcolor.streams import ConstraintStream, format_manifest, point_bound, validate_sparsity

F = Fraction


class TestBuiltins:
    def test_absdiff_eval(self):
        fn = builtin_addition_like("absdiff")
        assert fn.pair(3, 7) == 4
        assert fn.pair(7, 3) == 4
        assert fn.mult_bound == 2

    def test_sum_multiplicity_is_one(self):
        # x + z = v has the unique solution z = v - x
        fn = builtin_addition_like("sum")
        assert fn.mult_bound == 1
        for x in range(20):
            for y in range(20):
                if x == y:
                    continue
                v = fn.pair(x, y)
                solutions = {z for z in range(200) if z != x and fn.pair(x, z) == v}
                assert len(solutions) <= 1

    def test_absdiff_multiplicity_is_two(self):
        # |x - z| = v has solutions z in {x - v, x + v}
        fn = builtin_addition_like("absdiff")
        hit_two = False
        for x in range(20):
            for y in range(20):
                if x == y:
                    continue
                v = fn.pair(x, y)
                solutions = {z for z in range(200) if z != x and fn.pair(x, z) == v}
                assert len(solutions) <= 2
                hit_two = hit_two or len(solutions) == 2
        assert hit_two

    @pytest.mark.parametrize("name", ["sum", "absdiff"])
    def test_growth_witness_on_window(self, name):
        fn = builtin_addition_like(name)
        for x in range(12):
            for n in range(12):
                g = fn.growth(x, n)
                for y in range(g + 1, g + 8):
                    assert fn.pair(x, y) > n

    def test_unknown_name(self):
        with pytest.raises(InvalidParameterError):
            builtin_addition_like("product")


class TestStagedFamily:
    def test_member_at_change_points(self):
        fam = StagedFamily(
            "sigma2", 1, 10,
            (((3, frozenset({1, 2})), (6, frozenset({2})), (8, frozenset({2, 5}))),),
        )
        assert fam.member_at(0, 0) == frozenset()
        assert fam.member_at(0, 3) == {1, 2}
        assert fam.member_at(0, 5) == {1, 2}
        assert fam.member_at(0, 6) == {2}
        assert fam.member_at(0, 9) == {2, 5}

    def test_x_less_than_stage_enforced(self):
        with pytest.raises(StreamIntegrityError):
            StagedFamily("ce", 1, 10, (((3, frozenset({5})),),))

    def test_ce_monotone_enforced(self):
        with pytest.raises(InvalidInputError):
            StagedFamily(
                "ce", 1, 10,
                (((3, frozenset({1})), (5, frozenset({2}))),),
            )

    def test_family_format_round_trip(self):
        fam = gen_family(5, 3, 64, "ce", (4, 5, 6))
        back = parse_family(format_family(fam))
        assert back == fam
        fam2 = gen_family(5, 2, 256, "sigma2", (6, 8))
        assert parse_family(format_family(fam2)) == fam2

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_family("at 0 3 1 2\n")
        for i in (2, -1):
            with pytest.raises(ParseError, match="line 3"):
                parse_family(f"family ce 2 10\nat 0 3 1 2\nat {i} 4 1 2\n")

    @pytest.mark.parametrize("stage", [99, 10, -1])
    def test_stage_outside_header_names_its_line(self, stage):
        with pytest.raises(ParseError, match="line 2"):
            parse_family(f"family ce 1 10\nat 0 {stage} 1\n")

    def test_at_record_needs_the_header_first(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_family("at 0 3 1 2\nfamily ce 1 10\n")

    @pytest.mark.parametrize(
        "records, message",
        [
            ("at 0 3 7", "line 2: member 0: element 7 present at stage 3 violates x < s"),
            ("at 0 5 1\nat 0 3 1", "line 3: member 0: change stages must increase"),
            ("at 0 3 1 2\nat 0 5 1", "line 3: member 0: ce families must grow monotonically"),
        ],
        ids=["element", "stages", "shrink"],
    )
    def test_member_errors_name_their_line(self, records, message):
        with pytest.raises(ParseError, match=message):
            parse_family(f"family ce 1 10\n{records}\n")


class TestCandidateState:
    def fam_ce(self):
        # enumeration order 5, 3, 9, 12 by entry stage
        return StagedFamily(
            "ce", 1, 16,
            (((6, frozenset({5})), (7, frozenset({5, 3})), (10, frozenset({5, 3, 9})),
              (13, frozenset({5, 3, 9, 12}))),),
        )

    def test_ce_first_k_in_enumeration_order(self):
        assert _selection_timeline(self.fam_ce(), 0, 3)[12][0] == {5, 3, 9}

    def test_ce_below_threshold_empty(self):
        assert _selection_timeline(self.fam_ce(), 0, 3)[7][0] == frozenset()

    def test_sigma2_tenure_ordering(self):
        # x enters at 2 and stays; y enters at 1, leaves at 4, re-enters at 6;
        # z enters at 8; at stage 9 tenure starts are x:2, y:6, z:8
        fam = StagedFamily(
            "sigma2", 1, 12,
            (((1, frozenset({0})), (2, frozenset({0, 1})), (4, frozenset({1})),
              (6, frozenset({1, 0})), (8, frozenset({1, 0, 7}))),),
        )
        # k=2: keep the 2 longest-tenured of {x=1, y=0, z=7}
        assert _selection_timeline(fam, 0, 2)[9][0] == {1, 0}
        assert _selection_timeline(fam, 0, 3)[9][0] == {1, 0, 7}

    def test_stable_since_tracks_last_change(self):
        fam = StagedFamily(
            "sigma2", 1, 12,
            (((2, frozenset({1})), (5, frozenset({1, 3})),),),
        )
        selection, since = _selection_timeline(fam, 0, 2)[9]
        assert selection == {1, 3}
        assert since == 5


class TestChooseM:
    def brute_least(self, b, q, mode, probe=400):
        def holds(m):
            value = m if mode == "comp" else b * m * m
            return value ** q.denominator <= 2 ** (q.numerator * m)

        for m0 in range(1, probe):
            if all(holds(m) for m in range(m0, probe)):
                return m0
        raise AssertionError

    def test_known_values(self):
        assert choose_M(1, F(1, 2), "comp") == 4
        assert choose_M(1, F(1, 2), "main") == 16
        assert choose_M(2, F(1, 2), "main") == 19

    @pytest.mark.parametrize(
        "b,q,mode",
        [(1, F(1, 2), "comp"), (1, F(1, 2), "main"), (2, F(1, 2), "main"),
         (3, F(1, 2), "main"), (1, F(1, 3), "comp"), (2, F(2, 3), "main")],
    )
    def test_matches_brute_scan(self, b, q, mode):
        import math

        got = choose_M(b, q, mode)
        brute = self.brute_least(b, q, mode)
        # the returned value also carries the set-to-word doubling floor
        assert got == max(brute, math.ceil(F(2, 1 - q)))

    @pytest.mark.parametrize("b,mode", [(1, "comp"), (1, "main"), (2, "main"), (5, "main")])
    def test_matches_brute_scan_for_every_q_up_to_denominator_40(self, b, mode):
        import math

        for d in range(2, 41):
            for a in range(1, d):
                if math.gcd(a, d) > 1:
                    continue
                q = F(a, d)
                # for b <= 5 and d <= 40, a*m exceeds d*log2(b*m*m) from
                # m = 40*d/a + 200 on, so the scan below sees every failure
                brute = self.brute_least(b, q, mode, probe=40 * d // a + 200)
                assert choose_M(b, q, mode) == max(brute, math.ceil(F(2, 1 - q))), q

    def test_q_one_in_5000_is_decided_exactly(self):
        # 81 580 candidates of up to 5000 * 17 bits each are too many to scan
        # one m at a time: the search must bisect
        M = choose_M(1, F(1, 5000), "comp")
        assert M == 81580
        assert (M - 1) ** 5000 > 2 ** (M - 1)
        assert M**5000 <= 2**M

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            choose_M(0, F(1, 2), "comp")
        with pytest.raises(InvalidParameterError):
            choose_M(1, F(3, 2), "comp")
        with pytest.raises(InvalidParameterError):
            choose_M(1, F(1, 2), "other")


class TestCantorPairing:
    def test_order_matches_diagonals(self):
        # the builders' pair order: every (i, s) of the rectangle once, by
        # ascending Cantor index (diagonal i + s, then s)
        seq = list(_diagonal_pairs(6, 4))
        assert sorted(seq) == [(i, s) for i in range(6) for s in range(4)]
        assert seq == sorted(seq, key=lambda p: (p[0] + p[1], p[1]))


class TestGenFamily:
    def test_deterministic(self):
        a = gen_family(9, 4, 128, "ce", (5, 6, 7, 8))
        b = gen_family(9, 4, 128, "ce", (5, 6, 7, 8))
        assert a == b

    def test_ce_monotone_and_reaches_size(self):
        fam = gen_family(9, 4, 128, "ce", (5, 6, 7, 8))
        for i in range(4):
            prev = frozenset()
            for s in range(128):
                cur = fam.member_at(i, s)
                assert prev <= cur
                prev = cur
            assert len(fam.member_at(i, 127)) == (5, 6, 7, 8)[i]

    def test_sigma2_reaches_and_holds_size(self):
        fam = gen_family(3, 3, 256, "sigma2", (6, 8, 10))
        for i in range(3):
            assert len(fam.member_at(i, 255)) >= (6, 8, 10)[i]

    def test_sigma2_mind_change_budget(self):
        fam = gen_family(3, 3, 256, "sigma2", (6, 8, 10), max_mind_changes=3)
        for i in range(3):
            toggles: dict[int, int] = {}
            prev = frozenset()
            for s in range(256):
                cur = fam.member_at(i, s)
                for x in prev.symmetric_difference(cur):
                    toggles[x] = toggles.get(x, 0) + 1
                prev = cur
            # entry plus at most max_mind_changes toggles
            assert all(t <= 4 for t in toggles.values())

    def test_zero_mind_changes_is_delayed_ce(self):
        fam = gen_family(3, 3, 256, "sigma2", (6, 8, 10), max_mind_changes=0)
        for i in range(3):
            prev = frozenset()
            for s in range(256):
                cur = fam.member_at(i, s)
                assert prev <= cur
                prev = cur

    def test_unstable_member_churns_late(self):
        fam = gen_family(3, 2, 256, "sigma2", (6, 8), unstable_members=(1,))
        leave, comeback = 256 * 3 // 5, 256 * 4 // 5
        before = fam.member_at(1, leave - 1)
        during = fam.member_at(1, leave)
        after = fam.member_at(1, comeback)
        assert during != before
        assert after == before

    def test_too_small_stage_count_rejected(self):
        with pytest.raises(InvalidParameterError):
            gen_family(1, 1, 40, "sigma2", (30,))


class TestBuildTranslateStream:
    def small(self, members=3, stages=128, M=4, seed=2):
        sizes = tuple(M + i + 6 for i in range(members))
        fam = gen_family(seed, members, stages, "ce", sizes)
        return fam, build_translate_stream(fam, M)

    def test_translates_for_every_stage_past_definition(self):
        fam = StagedFamily(
            "ce", 1, 10,
            (((6, frozenset({0, 2, 5, 1})),),),
        )
        stream = build_translate_stream(fam, 4)
        assert stream.provenance == tuple((0, s) for s in range(6, 10))
        assert stream.dom(0) == (6, 7, 8, 11)

    def test_sizes_are_member_thresholds(self):
        fam, stream = self.small()
        for j in range(len(stream)):
            i, s = stream.provenance[j]
            assert len(stream.dom(j)) == 4 + i

    def test_no_duplicates(self):
        fam, stream = self.small()
        assert len(set(stream.items)) == len(stream)

    def test_translates_share_one_int_per_distinct_position(self):
        # a stream holds a translate as its member's base and a shift, which
        # is the translate's first position; the image build holds its
        # images the same way.  Shifts lie past 256, where the interpreter
        # shares no ints, and equal values share one int
        image = TestBuildImageStream().build("absdiff")[3]
        for stream in (self.small(stages=1024)[1], image):
            held = [*stream.shifts, *chain.from_iterable(stream.bases)]
            assert max(stream.shifts) > 256
            assert len({id(n) for n in held}) == len(set(held))
            assert all(stream.dom(j)[0] == stream.shifts[j] for j in range(len(stream)))

    def test_locality_counts_at_most_m(self):
        fam, stream = self.small()
        for m in {len(stream.dom(j)) for j in range(len(stream))}:
            for n in range(0, 200, 7):
                assert len(stream.locality(m, n)) <= m

    def test_locality_consistent(self):
        fam, stream = self.small()
        rep = validate_sparsity(stream, 256)
        assert rep.ok and rep.cross_check == "full"

    @settings(max_examples=40, deadline=None)
    @given(
        M=st.integers(4, 6),
        extra=st.lists(st.integers(-3, 6), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
        slack=st.integers(0, 40),
    )
    def test_locality_matches_an_index_of_the_items(self, M, extra, seed, slack):
        # a member whose target falls below M + i never defines a base
        sizes = tuple(max(1, M + i + e) for i, e in enumerate(extra))
        # the least stage count gen_family accepts for the largest target
        stages = max(sizes) + 17 + slack
        fam = gen_family(seed, len(sizes), stages, "ce", sizes)
        stream = build_translate_stream(fam, M)
        index = {}
        for j, dom in enumerate(stream.items):
            for n in dom:
                index.setdefault((len(dom), n), []).append(j)
        # sizes no item has, empty cells, and positions past the last stage
        # and past every item
        for m in range(M - 1, M + len(sizes) + 1):
            for n in range(2 * stages + 2):
                assert stream.locality(m, n) == tuple(index.get((m, n), ())), (m, n)

    def test_point_counts_reach_size(self):
        # five size-5 translates can stack on one point: within the exact
        # bound 2^2.5 = 5.65.. even though 2^floor(2.5) = 4 would reject
        fam, stream = self.small(members=2, stages=128)
        rep = validate_sparsity(stream, 256)
        assert rep.ok
        arr = rep.counts.get(5)
        assert arr is not None and max(arr) == 5

    def test_member_below_threshold_contributes_nothing(self):
        fam = StagedFamily(
            "ce", 2, 10,
            (
                ((6, frozenset({0, 2, 5, 1})),),
                ((3, frozenset({1, 2})),),  # never reaches 4 + 1 = 5 elements
            ),
        )
        stream = build_translate_stream(fam, 4)
        assert all(i == 0 for i, _ in stream.provenance)

    def test_build_holds_no_position_tuples(self):
        # the translate-dense bench config: 23 377 translates of 50 bases.
        # Holding every translate's positions, the build held 9.9 MB and
        # peaked at 10.3 MB under tracemalloc; as bases and shifts it holds
        # 3.1 MB (1.5 MB of it the provenance) and peaks at 4.3 MB
        M = 8
        fam = gen_family(derive_seed(7, 1), 50, 512, "ce", tuple(M + i + 8 for i in range(50)))
        tracemalloc.start()
        try:
            stream = build_translate_stream(fam, M)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (len(stream), len(stream.bases)) == (23377, 50)
        assert held < 4_500_000
        assert peak < 6_000_000

    def test_m_validated(self):
        fam = gen_family(2, 1, 64, "ce", (8,))
        with pytest.raises(InvalidParameterError) as exc:
            build_translate_stream(fam, 3)
        assert exc.value.least_valid == 4

    def test_requires_ce(self):
        fam = gen_family(2, 1, 256, "sigma2", (8,))
        with pytest.raises(InvalidInputError):
            build_translate_stream(fam, 4)


class TestBuildImageStream:
    def build(self, fname="sum", members=3, stages=512, seed=3, **kw):
        fn = builtin_addition_like(fname)
        M = choose_M(fn.mult_bound, F(1, 2), "main")
        sizes = tuple(fn.mult_bound * (M + i) + 6 for i in range(members))
        fam = gen_family(seed, members, stages, "sigma2", sizes, **kw)
        return fn, M, fam, build_image_stream(fam, fn, M)

    @pytest.mark.parametrize("fname", ["sum", "absdiff"])
    def test_counts_within_bm_squared(self, fname):
        fn, M, fam, stream = self.build(fname)
        rep = validate_sparsity(stream, 1024)
        assert rep.ok
        for m, arr in rep.counts.items():
            assert max(arr) <= fn.mult_bound * m * m
            assert max(arr) <= point_bound(F(1, 2), m)

    def test_image_sizes_at_least_threshold(self):
        fn, M, fam, stream = self.build("absdiff")
        for j in range(len(stream)):
            i, s = stream.provenance[j]
            assert len(stream.dom(j)) >= M + i

    def test_stabilized_members_emit_through_top_half(self):
        fn, M, fam, stream = self.build()
        stages = fam.stage_count
        emitted = {}
        for i, s in stream.provenance:
            emitted.setdefault(i, set()).add(s)
        for i in range(fam.count):
            missing = [s for s in range(stages // 2, stages) if s not in emitted.get(i, ())]
            assert missing == []

    def test_unstable_member_not_required_to_emit_late(self):
        fn, M, fam, stream = self.build(members=2, unstable_members=(1,))
        # builder stays total; the unstable member may simply contribute less
        assert len(stream) > 0

    def test_no_duplicates(self):
        fn, M, fam, stream = self.build()
        assert len(set(stream.items)) == len(stream)

    def test_min_image_clears_stability_start(self):
        fn, M, fam, stream = self.build()
        for j in range(len(stream)):
            i, s = stream.provenance[j]
            _, since = _selection_timeline(fam, i, fn.mult_bound * (M + i))[s]
            assert min(stream.dom(j)) > since

    @pytest.mark.parametrize("fname, seed, unstable", [
        ("sum", 3, ()), ("sum", 8, ()), ("absdiff", 3, ()), ("absdiff", 8, ()),
        ("absdiff", 5, (1,)),
    ])
    def test_locality_matches_brute_force_on_every_cell(self, fname, seed, unstable):
        fn, M, fam, stream = self.build(fname, seed=seed, unstable_members=unstable)
        index = {}
        for j in range(len(stream)):
            for n in stream.dom(j):
                index.setdefault((len(stream.dom(j)), n), []).append(j)
        top = max(len(stream.dom(j)) for j in range(len(stream)))
        # sizes no item has, empty cells, and points past the last stage
        window = 2 * fam.stage_count
        for m in range(M - 1, top + 2):
            for n in range(window):
                assert stream.locality(m, n) == tuple(index.get((m, n), ())), (m, n)

    @settings(max_examples=25, deadline=None)
    @given(
        fname=st.sampled_from(["sum", "absdiff"]),
        members=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        slack=st.integers(0, 48),
        unstable=st.integers(0, 6),
    )
    def test_locality_matches_an_index_of_the_items(self, fname, members, seed, slack, unstable):
        fn = builtin_addition_like(fname)
        M = choose_M(fn.mult_bound, F(1, 2), "main")
        sizes = tuple(fn.mult_bound * (M + i) + 6 for i in range(members))
        # the least stage count gen_family accepts for the largest member
        stages = 4 * (sizes[-1] + 16) + 18 + slack
        # member `unstable`, if there is one, churns late
        fam = gen_family(
            seed, members, stages, "sigma2", sizes,
            unstable_members=(unstable,) if unstable < members else (),
        )
        stream = build_image_stream(fam, fn, M)
        index = {}
        for j, dom in enumerate(stream.items):
            for n in dom:
                index.setdefault((len(dom), n), []).append(j)
        top = max(map(len, stream.items), default=M)
        # sizes no item has, positions no item touches, and positions past
        # the last stage
        for m in range(M - 1, top + 2):
            for n in range(2 * stages):
                assert stream.locality(m, n) == tuple(index.get((m, n), ())), (m, n)

    def test_oracle_keeps_its_stage_bound(self):
        # a growth witness that lies: its stage bound for point n is n + 1,
        # yet absdiff images from later stages still hold n, so an oracle
        # that honours the bound misses them and the cross-check must say
        # so; an oracle that scanned every record would pass
        fn = AdditionLike("absdiff-lying", lambda x, y: abs(x - y), lambda x, n: n // 2, 2)
        M = choose_M(fn.mult_bound, F(1, 2), "main")
        sizes = tuple(fn.mult_bound * (M + i) + 6 for i in range(3))
        stream = build_image_stream(gen_family(3, 3, 512, "sigma2", sizes), fn, M)
        with pytest.raises(StreamIntegrityError) as exc:
            validate_sparsity(stream, 1024)
        assert exc.value.witness == (0, 38, 123)

    def test_oracle_cuts_exactly_at_its_stage_bound(self):
        # a witness one short of absdiff's: the oracle must drop exactly
        # the emissions at or past max(n, growth(x, n) for x) + 1 (capped
        # at the last stage), which here include real holders of n
        fn = AdditionLike("absdiff-short", lambda x, y: abs(x - y), lambda x, n: x + n - 1, 2)
        M = choose_M(fn.mult_bound, F(1, 2), "main")
        sizes = tuple(fn.mult_bound * (M + i) + 6 for i in range(3))
        fam = gen_family(3, 3, 512, "sigma2", sizes)
        stream = build_image_stream(fam, fn, M)
        timelines = [_selection_timeline(fam, i, fn.mult_bound * (M + i)) for i in range(3)]
        dropped = 0
        for j, dom in enumerate(stream.items):
            i, s = stream.provenance[j]
            for n in dom:
                selection = timelines[i][n][0] if n < 512 else ()
                bound = max(n, max((x + n - 1 for x in selection), default=n)) + 1
                kept = s < min(bound, 512)
                dropped += not kept
                assert (j in stream.locality(len(dom), n)) == kept, (j, n)
        assert dropped > 0

    def test_stream_holds_each_item_once(self):
        # the image-absdiff bench config: holding each item once as a tuple
        # of positions, the build kept 6.0 MB and peaked at 7.2 MB; a
        # second copy of every item in the oracle would hold about 29 MB.
        # As 24 bases and a shift per item it keeps 2.3 MB (the oracle's
        # index and the provenance) and peaks at 4.1 MB
        fn = builtin_addition_like("absdiff")
        M = choose_M(fn.mult_bound, F(1, 2), "main")
        sizes = tuple(fn.mult_bound * (M + i) + 8 for i in range(24))
        fam = gen_family(derive_seed(7, 1), 24, 512, "sigma2", sizes)
        tracemalloc.start()
        try:
            stream = build_image_stream(fam, fn, M)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (len(stream), len(stream.bases)) == (7284, 24)
        assert held < 3_500_000
        assert peak < 5_500_000

    def test_m_validated(self):
        fn = builtin_addition_like("absdiff")
        fam = gen_family(2, 1, 512, "sigma2", (40,))
        with pytest.raises(InvalidParameterError) as exc:
            build_image_stream(fam, fn, 18)
        assert exc.value.least_valid == 19

    def test_requires_sigma2(self):
        fn = builtin_addition_like("sum")
        fam = gen_family(2, 1, 64, "ce", (8,))
        with pytest.raises(InvalidInputError):
            build_image_stream(fam, fn, 16)


@st.composite
def built_stream(draw):
    """A stream from either builder, over a small generated family: a
    translate stream, or an image stream of ``sum`` or ``absdiff`` whose
    last member may churn late.  Returns the builder's kind, the pair
    function, M, the family and the stream."""
    kind = draw(st.sampled_from(["translate", "sum", "absdiff"]))
    seed = draw(st.integers(0, 2**32 - 1))
    members = draw(st.integers(1, 4))
    slack = draw(st.integers(0, 40))
    if kind == "translate":
        fn = builtin_addition_like("sum")
        M = draw(st.integers(4, 6))
        sizes = tuple(M + i + draw(st.integers(-2, 6)) for i in range(members))
        fam = gen_family(seed, members, max(sizes) + 17 + slack, "ce", sizes)
        return kind, fn, M, fam, build_translate_stream(fam, M)
    fn = builtin_addition_like(kind)
    M = choose_M(fn.mult_bound, F(1, 2), "main")
    sizes = tuple(fn.mult_bound * (M + i) + 6 for i in range(members))
    unstable = (members - 1,) if draw(st.booleans()) else ()
    stages = 4 * (sizes[-1] + 16) + 18 + slack
    fam = gen_family(seed, members, stages, "sigma2", sizes, unstable_members=unstable)
    return kind, fn, M, fam, build_image_stream(fam, fn, M)


class TestBaseForm:
    """A built stream holds each item as a base and a shift; the domain it
    derives must be the set the paper's construction emits at the item's
    provenance, and handing the same domains in as item tuples must give an
    equal stream."""

    @settings(max_examples=30, deadline=None)
    @given(built=built_stream())
    def test_domains_match_the_family(self, built):
        kind, fn, M, fam, stream = built
        b = 1 if kind == "translate" else fn.mult_bound
        timelines = [_selection_timeline(fam, i, b * (M + i)) for i in range(fam.count)]
        doms = []
        for j, (i, s) in enumerate(stream.provenance):
            timeline = timelines[i]
            if kind == "translate":
                # E + s, for the member's first selection E
                expect = tuple(x + s for x in sorted(timeline[_first_selected(timeline)][0]))
            else:
                expect = tuple(sorted({fn.pair(x, s) for x in timeline[s][0]}))
            assert stream.dom(j) == expect, (j, i, s)
            doms.append(expect)
        assert len(stream.bases) == len({tuple(n - d[0] for n in d) for d in doms})
        again = ConstraintStream(M, F(1, 2), tuple(doms), stream.provenance)
        assert again == stream
        assert format_manifest(again) == format_manifest(stream)


class TestBaselineColoring:
    def test_pattern_for_difference_two(self):
        assert baseline_coloring(1, 3, 0, 12) == "001100110011"

    def test_delayed_announcement(self):
        assert baseline_coloring(1, 3, 5, 14) == "00000110011001"

    def test_guarantee_on_window(self):
        for a, b, announce in ((1, 3, 0), (2, 7, 4), (0, 4, 9)):
            horizon = 128
            bits = baseline_coloring(a, b, announce, horizon)
            d = b - a
            for s in range(announce + d, horizon - b):
                assert bits[a + s] != bits[b + s], (a, b, announce, s)

    def test_precondition(self):
        with pytest.raises(InvalidParameterError):
            baseline_coloring(3, 1, 0, 32)
        with pytest.raises(InvalidParameterError):
            baseline_coloring(1, 3, 0, 4)


class TestPigeonhole:
    def test_corrected_triple_forced(self):
        report = pigeonhole_check(6)
        assert report.forced_triple_holds
        assert report.forced_counterexamples == ()

    def test_literal_triple_admits_avoider(self):
        report = pigeonhole_check(6)
        assert "0110" in report.naive_counterexamples
        assert "1001" in report.naive_counterexamples

    def test_avoider_pattern_checks_out(self):
        # pattern 0,1,1,0 on positions s..s+3 dodges all three literal sets
        c = [0, 1, 1, 0]
        assert c[0] != c[1] and c[0] != c[2] and c[1] != c[3]

    def test_recurrence_conclusion(self):
        assert pigeonhole_check(3).some_member_recurs
