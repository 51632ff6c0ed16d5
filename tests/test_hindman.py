"""Addition-like functions, staged families, candidate selection, the two
stream builders, and the warm-up demonstrations."""

import tracemalloc
from array import array
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import assume, example, given, settings
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
    _selections,
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
from lllcolor.streams import (
    ConstraintStream,
    format_manifest,
    parse_manifest,
    point_bound,
    validate_sparsity,
)
from test_streams import items_stream, stream_items, stream_provenance

F = Fraction


def staged_family(mode, count, stage_count, changes):
    """The family whose member i passes through the (stage, full set) change
    points ``changes[i]``: each point becomes the toggle of the elements
    that differ from the member's previous set."""
    toggles = []
    for points in changes:
        prev, member = frozenset(), []
        for s, full in points:
            member.append((s, tuple(sorted(prev ^ full))))
            prev = frozenset(full)
        toggles.append(tuple(member))
    return StagedFamily(mode, count, stage_count, tuple(toggles))


@st.composite
def change_points(draw, modes=("ce", "sigma2")):
    """``(mode, stage_count, changes)``: per member, the (stage, full set)
    change points of a valid family in one of ``modes``.  A point may
    repeat the set before it; a sigma2 point may drop and re-add elements."""
    mode = draw(st.sampled_from(modes))
    stage_count = draw(st.integers(1, 40))
    changes = []
    for _ in range(draw(st.integers(1, 3))):
        full, points = frozenset(), []
        for s in sorted(draw(st.sets(st.integers(0, stage_count - 1), max_size=8))):
            flips = draw(st.frozensets(st.integers(0, s - 1), max_size=5)) if s else frozenset()
            full = full | flips if mode == "ce" else full ^ flips
            points.append((s, full))
        changes.append(tuple(points))
    return mode, stage_count, tuple(changes)


def selection_timeline_oracle(points, k):
    """``_selections`` over (stage, full set) change points, by set
    differences and a sort per change point."""
    changes = [(0, ())]
    present = frozenset()
    tenure = {}
    for s, incoming in points:
        for x in incoming - present:
            tenure[x] = s
        for x in present - incoming:
            del tenure[x]
        present = incoming
        if len(present) < k:
            chosen = ()
        else:
            chosen = tuple(sorted(sorted(present, key=lambda x: (tenure[x], x))[:k]))
        if chosen != changes[-1][1]:
            changes.append((s, chosen))
    return changes


def selection_at(changes, s):
    """The ``(since, selection)`` pair of ``_selections``' change points
    ``changes`` in force at stage s: the selection and the stage it was
    made."""
    return next(point for point in reversed(changes) if point[0] <= s)


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
        fam = staged_family(
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
            staged_family("ce", 1, 10, (((3, frozenset({5})),),))

    def test_ce_monotone_enforced(self):
        with pytest.raises(InvalidInputError):
            staged_family(
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

    def test_entering_element_past_its_stage_names_it(self):
        with pytest.raises(StreamIntegrityError) as exc:
            StagedFamily("sigma2", 1, 10, (((3, (1,)), (6, (1, 7))),))
        assert exc.value.witness == (0, 6, 7)

    @pytest.mark.parametrize("elements", [(2, 1), (1, 1)])
    def test_toggled_elements_must_increase(self, elements):
        with pytest.raises(InvalidInputError, match="toggled elements must increase"):
            StagedFamily("sigma2", 1, 10, (((3, elements),),))

    @pytest.mark.parametrize("mode", ["ce", "sigma2"])
    @pytest.mark.parametrize("element", [True, 2.0, "2"])
    def test_element_that_is_not_an_int_is_refused(self, mode, element):
        # format_family would write a bool or a float as a token that
        # parse_family refuses
        message = rf"^member 0: element {element!r} at stage 3 is not an int$"
        with pytest.raises(InvalidInputError, match=message):
            StagedFamily(mode, 1, 10, (((3, (1, element)),),))

    def test_repeated_set_is_an_empty_toggle(self):
        text = "family sigma2 1 10\nat 0 3 1 2\nat 0 5 1 2\nat 0 7\n"
        fam = parse_family(text)
        assert fam.toggles == (((3, (1, 2)), (5, ()), (7, (1, 2))),)
        assert format_family(fam) == text

    @settings(max_examples=150, deadline=None)
    @given(points=change_points())
    def test_member_at_replays_the_change_points(self, points):
        mode, stage_count, changes = points
        fam = staged_family(mode, len(changes), stage_count, changes)
        for i, member in enumerate(changes):
            for s in range(stage_count):
                expect = ([frozenset()] + [full for stage, full in member if stage <= s])[-1]
                assert fam.member_at(i, s) == expect, (i, s)

    @settings(max_examples=150, deadline=None)
    @given(points=change_points())
    def test_format_writes_each_change_point_and_parses_back(self, points):
        # the file format is the change points' full sets, as it was before
        # the family held toggles
        mode, stage_count, changes = points
        fam = staged_family(mode, len(changes), stage_count, changes)
        lines = [f"family {mode} {len(changes)} {stage_count}"] + [
            f"at {i} {s} {' '.join(map(str, sorted(full)))}".rstrip()
            for i, member in enumerate(changes) for s, full in member
        ]
        assert format_family(fam) == "\n".join(lines) + "\n"
        assert parse_family(format_family(fam)) == fam

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        mode=st.sampled_from(("ce", "sigma2")),
        sizes=st.lists(st.integers(1, 12), min_size=1, max_size=4),
        mind_changes=st.integers(0, 5),
        slack=st.integers(0, 60),
    )
    def test_generated_family_round_trips(self, seed, mode, sizes, mind_changes, slack):
        # the least stage count gen_family accepts for the largest target
        span = max(sizes) + 16
        stages = (span + 1 if mode == "ce" else 4 * span + 18) + slack
        fam = gen_family(seed, len(sizes), stages, mode, sizes, max_mind_changes=mind_changes,
                         unstable_members=(0,))
        assert parse_family(format_family(fam)) == fam

    @settings(max_examples=150, deadline=None)
    @given(points=change_points(), k=st.integers(1, 6))
    def test_selection_timeline_matches_set_differences(self, points, k):
        mode, stage_count, changes = points
        fam = staged_family(mode, len(changes), stage_count, changes)
        for i, member in enumerate(changes):
            assert _selections(fam, i, k) == selection_timeline_oracle(member, k), i

    @settings(max_examples=100, deadline=None)
    @given(points=change_points(modes=("ce",)), k=st.integers(1, 6))
    def test_ce_selection_is_made_once(self, points, k):
        # the translate builder takes a ce member's last selection as its
        # base, and the comp audit audits from its stage: a ce member makes
        # at most one nonempty selection, and never drops it
        mode, stage_count, changes = points
        fam = staged_family(mode, len(changes), stage_count, changes)
        for i in range(len(changes)):
            made = _selections(fam, i, k)[1:]
            assert len(made) <= 1 and all(selection for _, selection in made), i

    def test_ce_family_stores_each_element_once(self):
        # the translate-dense bench config: 1 830 change points whose full
        # sets held 45 140 elements; as toggles the family holds the 2 025
        # elements the targets ask for
        sizes = tuple(8 + i + 8 for i in range(50))
        fam = gen_family(derive_seed(7, 1), 50, 512, "ce", sizes)
        assert sum(len(elements) for member in fam.toggles for _, elements in member) == sum(sizes)


class TestCandidateState:
    def fam_ce(self):
        # enumeration order 5, 3, 9, 12 by entry stage
        return staged_family(
            "ce", 1, 16,
            (((6, frozenset({5})), (7, frozenset({5, 3})), (10, frozenset({5, 3, 9})),
              (13, frozenset({5, 3, 9, 12}))),),
        )

    def test_ce_first_k_in_enumeration_order(self):
        assert selection_at(_selections(self.fam_ce(), 0, 3), 12)[1] == (3, 5, 9)

    def test_ce_below_threshold_empty(self):
        assert selection_at(_selections(self.fam_ce(), 0, 3), 7)[1] == ()

    def test_sigma2_tenure_ordering(self):
        # x enters at 2 and stays; y enters at 1, leaves at 4, re-enters at 6;
        # z enters at 8; at stage 9 tenure starts are x:2, y:6, z:8
        fam = staged_family(
            "sigma2", 1, 12,
            (((1, frozenset({0})), (2, frozenset({0, 1})), (4, frozenset({1})),
              (6, frozenset({1, 0})), (8, frozenset({1, 0, 7}))),),
        )
        # k=2: keep the 2 longest-tenured of {x=1, y=0, z=7}
        assert selection_at(_selections(fam, 0, 2), 9)[1] == (0, 1)
        assert selection_at(_selections(fam, 0, 3), 9)[1] == (0, 1, 7)

    def test_stable_since_tracks_last_change(self):
        fam = staged_family(
            "sigma2", 1, 12,
            (((2, frozenset({1})), (5, frozenset({1, 3})),),),
        )
        since, selection = selection_at(_selections(fam, 0, 2), 9)
        assert selection == (1, 3)
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

    @pytest.mark.parametrize("size", [5.9, True, "7"], ids=["float", "bool", "str"])
    def test_target_size_not_an_int_rejected(self, size):
        # each was once read as another int: 5.9 as 5, True as 1, "7" as 7
        with pytest.raises(InvalidParameterError,
                           match=f"^member 1: target size {size!r} is not an int$"):
            gen_family(1, 2, 64, "ce", (4, size))

    @pytest.mark.parametrize("count", [2.0, True, "2"], ids=["float", "bool", "str"])
    def test_member_count_not_an_int_rejected(self, count):
        # 2.0 once reached range() as a bare TypeError, True was read as 1
        with pytest.raises(InvalidParameterError, match=f"^member count {count!r} is not an int$"):
            gen_family(0, count, 64, "ce", (5, 6))


class TestBuildTranslateStream:
    def small(self, members=3, stages=128, M=4, seed=2):
        sizes = tuple(M + i + 6 for i in range(members))
        fam = gen_family(seed, members, stages, "ce", sizes)
        return fam, build_translate_stream(fam, M)

    def test_translates_for_every_stage_past_definition(self):
        fam = staged_family(
            "ce", 1, 10,
            (((6, frozenset({0, 2, 5, 1})),),),
        )
        stream = build_translate_stream(fam, 4)
        assert stream_provenance(stream) == tuple((0, s) for s in range(6, 10))
        assert stream.dom(0) == (6, 7, 8, 11)

    def test_sizes_are_member_thresholds(self):
        fam, stream = self.small()
        for j in range(len(stream)):
            i, s = stream.emitted_by[j], stream.emitted_at[j]
            assert len(stream.dom(j)) == 4 + i

    def test_no_duplicates(self):
        fam, stream = self.small()
        assert len(set(stream_items(stream))) == len(stream)

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
        rep = validate_sparsity(stream, 256)
        assert rep.counts.keys() == {len(stream.dom(j)) for j in range(len(stream))}
        for m, arr in rep.counts.items():
            assert max(arr) <= m

    def test_locality_consistent(self):
        fam, stream = self.small()
        rep = validate_sparsity(stream, 256)
        assert rep.ok and rep.stage_bound == "held"

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
        bound = stream.stage_bound
        for j, (i, s) in enumerate(stream_provenance(stream)):
            n = stream.shifts[j]
            # the item starts at s + min(E), and the bound allows exactly
            # the stages up to its first position
            assert n == s + min(selection_at(_selections(fam, i, M + i), s)[1])
            assert bound(i, n, s) and bound(i, n, n) and not bound(i, n, n + 1), j
        assert locality_from_bound(stream, stages) == item_index(stream)
        assert validate_sparsity(stream, 2 * stages).stage_bound == "held"

    def test_point_counts_reach_size(self):
        # five size-5 translates can stack on one point: within the exact
        # bound 2^2.5 = 5.65.. even though 2^floor(2.5) = 4 would reject
        fam, stream = self.small(members=2, stages=128)
        rep = validate_sparsity(stream, 256)
        assert rep.ok
        arr = rep.counts.get(5)
        assert arr is not None and max(arr) == 5

    def test_member_below_threshold_contributes_nothing(self):
        fam = staged_family(
            "ce", 2, 10,
            (
                ((6, frozenset({0, 2, 5, 1})),),
                ((3, frozenset({1, 2})),),  # never reaches 4 + 1 = 5 elements
            ),
        )
        stream = build_translate_stream(fam, 4)
        assert all(i == 0 for i, _ in stream_provenance(stream))

    def test_build_holds_no_position_tuples(self):
        # the translate-dense bench config: 23 377 translates of 50 bases.
        # Holding every translate's positions, the build held 9.9 MB and
        # peaked at 10.3 MB under tracemalloc; as bases and shifts it held
        # 3.1 MB (1.5 MB of it the provenance as pairs) and peaked at 4.3 MB.
        # With the provenance and the oracle's item ids as array columns it
        # held 0.99 MB and peaked at 2.2 MB; with a stage bound in place of
        # the oracle it holds 0.78 MB and peaks at 2.0 MB on Python 3.11
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
            i, s = stream.emitted_by[j], stream.emitted_at[j]
            assert len(stream.dom(j)) >= M + i

    def test_stabilized_members_emit_through_top_half(self):
        fn, M, fam, stream = self.build()
        stages = fam.stage_count
        emitted = {}
        for i, s in stream_provenance(stream):
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
        assert len(set(stream_items(stream))) == len(stream)

    def test_min_image_clears_stability_start(self):
        fn, M, fam, stream = self.build()
        for j in range(len(stream)):
            i, s = stream.emitted_by[j], stream.emitted_at[j]
            since, _ = selection_at(_selections(fam, i, fn.mult_bound * (M + i)), s)
            assert min(stream.dom(j)) > since

    @pytest.mark.parametrize("fname, seed, unstable", [
        ("sum", 3, ()), ("sum", 8, ()), ("absdiff", 3, ()), ("absdiff", 8, ()),
        ("absdiff", 5, (1,)),
    ])
    def test_locality_matches_brute_force_on_every_cell(self, fname, seed, unstable):
        # the largest stage the bound allows at (i, n) is the restated
        # bound, for every member and every position up to twice the
        # stages, whether or not an item starts there; the items the bound
        # finds through each cell are an index's
        fn, M, fam, stream = self.build(fname, seed=seed, unstable_members=unstable)
        stages = fam.stage_count
        timelines = [_selections(fam, i, fn.mult_bound * (M + i)) for i in range(fam.count)]
        bound = stream.stage_bound
        for i, timeline in enumerate(timelines):
            for n in range(2 * stages):
                top = restated_bound(fn, timeline, n, stages)
                assert bound(i, n, top) and not bound(i, n, top + 1), (i, n)
        for j, (i, s) in enumerate(stream_provenance(stream)):
            assert s <= restated_bound(fn, timelines[i], stream.shifts[j], stages), j
        assert locality_from_bound(stream, fam.stage_count) == item_index(stream)

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
        assert locality_from_bound(stream, stages) == item_index(stream)

    @settings(max_examples=15, deadline=None)
    @given(
        members=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        slack=st.integers(0, 48),
        unstable=st.integers(0, 4),
    )
    @example(members=4, seed=3, slack=0, unstable=4)
    @example(members=4, seed=4, slack=0, unstable=4)
    def test_locality_matches_an_index_when_images_are_not_translates(
        self, members, seed, slack, unstable
    ):
        # x + y rounded up to even: the parity of the stage decides the
        # image's shape, so each member's images fall under several bases,
        # each a run of single shifts, and a member's image sizes vary.
        # A draw in which some member's images all share a parity gives that
        # member one base (member 0 at seed 182 of 3 members); it is drawn
        # again
        fn = AdditionLike("even-sum", lambda x, y: x + y + (x + y) % 2, lambda x, n: n, 2)
        M = choose_M(fn.mult_bound, F(1, 2), "main")
        sizes = tuple(fn.mult_bound * (M + i) + 6 for i in range(members))
        stages = 4 * (sizes[-1] + 16) + 18 + slack
        fam = gen_family(
            seed, members, stages, "sigma2", sizes,
            unstable_members=(unstable,) if unstable < members else (),
        )
        stream = build_image_stream(fam, fn, M)
        bases_of = {}
        for j, (i, _) in enumerate(stream_provenance(stream)):
            bases_of.setdefault(i, set()).add(stream.base_ids[j])
        assert sorted(bases_of) == list(range(members))
        assume(min(map(len, bases_of.values())) >= 2)
        timelines = [_selections(fam, i, fn.mult_bound * (M + i)) for i in range(members)]
        for j, (i, s) in enumerate(stream_provenance(stream)):
            n = stream.shifts[j]
            top = restated_bound(fn, timelines[i], n, stages)
            assert s <= top and stream.stage_bound(i, n, s), j
            assert not stream.stage_bound(i, n, top + 1), j
        assert locality_from_bound(stream, stages) == item_index(stream)
        rep = validate_sparsity(stream, 2 * stages)
        assert rep.ok and rep.stage_bound == "held"

    def test_oracle_keeps_its_stage_bound(self):
        # a growth witness that lies: its bound at position n is n, yet
        # absdiff images start below the stage that emits them, so the
        # first item is already past the bound and the sweep must say so;
        # a bound that answered true would pass
        fn = AdditionLike("absdiff-lying", lambda x, y: abs(x - y), lambda x, n: n // 2, 2)
        M = choose_M(fn.mult_bound, F(1, 2), "main")
        sizes = tuple(fn.mult_bound * (M + i) + 6 for i in range(3))
        stream = build_image_stream(gen_family(3, 3, 512, "sigma2", sizes), fn, M)
        assert stream.emitted_at[0] > stream.shifts[0]
        with pytest.raises(StreamIntegrityError) as exc:
            validate_sparsity(stream, 1024)
        assert exc.value.witness == (0,)

    def test_oracle_cuts_exactly_at_its_stage_bound(self):
        # a witness one short of absdiff's: absdiff's bound is exact at
        # every item, max(E) + n, so the short one allows exactly the
        # stages before each item's own, and refuses the first item
        fn = AdditionLike("absdiff-short", lambda x, y: abs(x - y), lambda x, n: x + n - 1, 2)
        M = choose_M(fn.mult_bound, F(1, 2), "main")
        sizes = tuple(fn.mult_bound * (M + i) + 6 for i in range(3))
        fam = gen_family(3, 3, 512, "sigma2", sizes)
        stream = build_image_stream(fam, fn, M)
        bound = stream.stage_bound
        for j, (i, s) in enumerate(stream_provenance(stream)):
            n = stream.shifts[j]
            assert bound(i, n, s - 1) and not bound(i, n, s), j
        with pytest.raises(StreamIntegrityError) as exc:
            validate_sparsity(stream, 1024)
        assert exc.value.witness == (0,)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_oracle_cuts_runs_whose_stages_fall(self, seed):
        # x + (y ^ 31) reverses each block of 32 stages, so a member's
        # consecutive shifts of one base come from falling stages, and y
        # past n does not put the image past n: a growth witness of n is a
        # lie.  Its bound refuses exactly the items emitted after their
        # first position, and the sweep names the first of them
        fn = AdditionLike("sum-reversed", lambda x, y: x + (y ^ 31), lambda x, n: n, 1)
        M = choose_M(fn.mult_bound, F(1, 2), "main")
        fam = gen_family(seed, 3, 512, "sigma2", tuple(M + i + 6 for i in range(3)))
        stream = build_image_stream(fam, fn, M)
        stage = {
            (stream.base_ids[j], stream.shifts[j]): s for j, s in enumerate(stream.emitted_at)
        }
        assert any(stage.get((b, u + 1), s) < s for (b, u), s in stage.items())
        late = [
            j for j, (i, s) in enumerate(stream_provenance(stream)) if s > stream.shifts[j]
        ]
        refused = [
            j for j, (i, s) in enumerate(stream_provenance(stream))
            if not stream.stage_bound(i, stream.shifts[j], s)
        ]
        assert refused == late and late
        with pytest.raises(StreamIntegrityError) as exc:
            validate_sparsity(stream, 1024)
        assert exc.value.witness == (late[0],)

    def test_stream_holds_each_item_once(self):
        # the image-absdiff bench config: holding each item once as a tuple
        # of positions, the build kept 6.0 MB and peaked at 7.2 MB; a
        # second copy of every item in a locality oracle would hold about
        # 29 MB.  As 24 bases and a shift per item, with the oracle's runs
        # of shifts holding an id and a stage per item, it kept 1.4 MB and
        # peaked at 3.3 MB; with the provenance as two array columns, 1.1
        # and 3.1 MB.  With a stage bound in place of the oracle it keeps
        # 0.62 MB and peaks at 2.7 MB on Python 3.11
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
        assert held < 2_000_000
        assert peak < 4_500_000

    def test_stage_bound_keeps_only_change_points(self):
        # the image-absdiff bench config: what the stream holds less once
        # its bound is dropped.  Holding each member's selection at every
        # stage, the bound kept 0.130 MB under tracemalloc; holding only
        # the change points it keeps 0.032 MB on Python 3.11.  The bound
        # sits between the two
        fn = builtin_addition_like("absdiff")
        M = choose_M(fn.mult_bound, F(1, 2), "main")
        sizes = tuple(fn.mult_bound * (M + i) + 8 for i in range(24))
        fam = gen_family(derive_seed(7, 1), 24, 512, "sigma2", sizes)
        tracemalloc.start()
        try:
            stream = build_image_stream(fam, fn, M)
            held = tracemalloc.get_traced_memory()[0]
            stream.stage_bound = None
            kept = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(stream) == 7284
        assert kept < 80_000

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

    def test_item_two_members_emit_is_listed_once(self):
        # x + y rounded up to even sends 1 where 0 or 2 goes and 3 where 2
        # or 4 goes, so member 1, selecting member 0's elements plus 1 and
        # 3, has member 0's image at every stage: two members hold size m
        # and emit the same items, which the stream must hold once, with
        # the provenance of its first emission, which the bound allows
        fn = AdditionLike("even-sum", lambda x, y: x + y + (x + y) % 2, lambda x, n: n, 2)
        M = choose_M(fn.mult_bound, F(1, 2), "main")
        first = frozenset(range(0, 4 * M, 2))
        stages = 8 * M
        fam = staged_family("sigma2", 2, stages, (
            ((4 * M, first),),
            ((4 * M, first | {1, 3}),),
        ))
        stream = build_image_stream(fam, fn, M)
        assert {i for i, _ in stream_provenance(stream)} == {0}
        assert len(set(stream_items(stream))) == len(stream)
        assert {m for m, _ in item_index(stream)} == {2 * M}
        rep = validate_sparsity(stream, 2 * stages)
        assert rep.ok and rep.stage_bound == "held"


def item_index(stream):
    """``(m, n) -> ids``: the items of size m through position n, in id
    order, read from every item's domain."""
    index = {}
    for j, dom in enumerate(stream_items(stream)):
        for n in dom:
            index.setdefault((len(dom), n), []).append(j)
    return index


def locality_from_bound(stream, stage_count):
    """The index :func:`item_index` reads, found the way the stage bound
    lets a reader of the enumeration find it: member i's items through n
    are those it emits up to ``reach[i][n]``, the largest stage below
    ``stage_count`` that its bound allows at a first position up to n.
    Only the items emitted by then are listed, so a bound that falls short
    of an item's stage loses that item."""
    bound = stream.stage_bound
    top = max((dom[-1] for dom in stream_items(stream)), default=-1)
    reach = {}
    for i in set(stream.emitted_by):
        row, last = [], -1
        for n in range(top + 1):
            # the bound allows a prefix of the stages: find its last one
            lo, hi = -1, stage_count - 1
            while lo < hi:
                mid = (lo + hi + 1) // 2
                lo, hi = (mid, hi) if bound(i, n, mid) else (lo, mid - 1)
            last = max(last, lo)
            row.append(last)
        reach[i] = row
    found = {}
    for j, (i, s) in enumerate(stream_provenance(stream) or ()):
        dom = stream.dom(j)
        for n in dom:
            if s <= reach[i][n]:
                found.setdefault((len(dom), n), []).append(j)
    return found


def restated_bound(fn, timeline, n, stages):
    """The largest stage at which a member with this selection timeline, of
    ``stages`` stages, may emit an image whose first position is n: n
    itself, or at a stage n the largest growth value of that stage's
    selection if it is larger."""
    if n >= stages:
        return n
    return max([n, *(fn.growth(x, n) for x in selection_at(timeline, n)[1])])


def past_bound(stream, j, by=1):
    """``stream`` rebuilt from its fields, bound included, with item j's
    stage raised to ``by`` stages past the largest its bound allows."""
    i, n, top = stream.emitted_by[j], stream.shifts[j], stream.emitted_at[j]
    while stream.stage_bound(i, n, top + 1):
        top += 1
        assert top < 1 << 16, "the bound allows every stage"
    at = array("q", stream.emitted_at)
    at[j] = top + by
    return ConstraintStream(
        stream.M, stream.q, stream.bases, stream.base_ids, stream.shifts, stream.emitted_by, at,
        stream.stage_bound,
    )


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


class TestStageBound:
    """Each builder's stage bound, put to the stream it built."""

    @staticmethod
    def build(kind):
        if kind == "translate":
            return build_translate_stream(gen_family(2, 3, 128, "ce", (10, 11, 12)), 4)
        return TestBuildImageStream().build(kind, seed=8)[3]

    @pytest.mark.parametrize("kind", ["translate", "absdiff", "sum"])
    def test_item_one_stage_past_its_bound_is_refused(self, kind):
        stream = self.build(kind)
        assert validate_sparsity(stream, 1024).stage_bound == "held"
        for j in (0, len(stream) // 2, len(stream) - 1):
            # at its bound the item passes; one stage past it is refused
            assert validate_sparsity(past_bound(stream, j, by=0), 1024).stage_bound == "held"
            with pytest.raises(StreamIntegrityError) as exc:
                validate_sparsity(past_bound(stream, j), 1024)
            assert exc.value.witness == (j,)

    @settings(max_examples=40, deadline=None)
    @given(built=built_stream())
    def test_every_item_lies_within_its_bound_and_some_at_it(self, built):
        # the bound allows exactly the stages up to the restated one, and
        # the items exactly at it are those the construction puts there:
        # every absdiff image (its least value is s - max(E)), and the
        # translates and sum images of a selection that holds 0 (their
        # first position is then their stage).  A bound that always
        # answered true would hold no item at it
        kind, fn, M, fam, stream = built
        b = 1 if kind == "translate" else fn.mult_bound
        timelines = [_selections(fam, i, b * (M + i)) for i in range(fam.count)]
        at_bound, expect = [], []
        for j, (i, s) in enumerate(stream_provenance(stream)):
            n, timeline = stream.shifts[j], timelines[i]
            top = n if kind == "translate" else restated_bound(fn, timeline, n, fam.stage_count)
            assert s <= top and stream.stage_bound(i, n, s), j
            assert not stream.stage_bound(i, n, top + 1), j
            at_bound += [j] * (s == top)
            # a translate's selection, made once, is still in force at s
            _, selection = selection_at(timeline, s)
            expect += [j] * (kind == "absdiff" or 0 in selection)
        assert at_bound == expect
        if kind == "absdiff":
            assert len(at_bound) == len(stream) > 0

    def test_bench_item_lies_at_its_bound(self):
        # the image-absdiff bench config at seed 7: item 100 is emitted at
        # stage 205, which is its bound
        fn = builtin_addition_like("absdiff")
        M = choose_M(fn.mult_bound, F(1, 2), "main")
        sizes = tuple(fn.mult_bound * (M + i) + 8 for i in range(24))
        stream = build_image_stream(gen_family(derive_seed(7, 1), 24, 512, "sigma2", sizes), fn, M)
        i, n, s = stream.emitted_by[100], stream.shifts[100], stream.emitted_at[100]
        assert s == 205
        assert stream.stage_bound(i, n, 205) and not stream.stage_bound(i, n, 206)


class TestBaseForm:
    """A built stream holds each item as a base and a shift; the domain it
    derives must be the set the paper's construction emits at the item's
    provenance, and handing the same domains in as item tuples must give an
    equal stream."""

    @settings(max_examples=30, deadline=None)
    @given(built=built_stream())
    def test_domains_match_the_family(self, built):
        self.check_domains(*built)

    @settings(max_examples=20, deadline=None)
    @given(
        fn=st.sampled_from([
            # x + y rounded up to even: an image's shape follows the
            # stage's parity, so consecutive images differ in shape
            AdditionLike("even-sum", lambda x, y: x + y + (x + y) % 2, lambda x, n: n, 2),
            # x + (y ^ 31): an image is the selection moved by s ^ 31,
            # which falls by one within a block of 32 stages and jumps
            # between blocks
            AdditionLike("sum-reversed", lambda x, y: x + (y ^ 31), lambda x, n: n, 1),
        ]),
        members=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        slack=st.integers(0, 40),
        unstable=st.booleans(),
    )
    def test_domains_match_the_family_when_images_are_not_translates(
        self, fn, members, seed, slack, unstable
    ):
        # the builder gives an image the last emitted image's base when it
        # is that image moved by a constant; no reuse may merge two shapes
        M = choose_M(fn.mult_bound, F(1, 2), "main")
        sizes = tuple(fn.mult_bound * (M + i) + 6 for i in range(members))
        stages = 4 * (sizes[-1] + 16) + 18 + slack
        fam = gen_family(
            seed, members, stages, "sigma2", sizes,
            unstable_members=(members - 1,) if unstable else (),
        )
        self.check_domains(fn.name, fn, M, fam, build_image_stream(fam, fn, M))

    @staticmethod
    def check_domains(kind, fn, M, fam, stream):
        b = 1 if kind == "translate" else fn.mult_bound
        timelines = [_selections(fam, i, b * (M + i)) for i in range(fam.count)]
        doms = []
        for j, (i, s) in enumerate(stream_provenance(stream)):
            _, selection = selection_at(timelines[i], s)
            if kind == "translate":
                # E + s, for the member's selection E, made once
                expect = tuple(x + s for x in selection)
            else:
                expect = tuple(sorted({fn.pair(x, s) for x in selection}))
            assert stream.dom(j) == expect, (j, i, s)
            doms.append(expect)
        assert len(stream.bases) == len({tuple(n - d[0] for n in d) for d in doms})
        # the items split anew, handed the pairs, the builder's own table,
        # handed its columns, and a parse of the manifest read back the builder's
        # provenance and give an equal stream
        again = items_stream(M, F(1, 2), tuple(doms), stream_provenance(stream))
        table = ConstraintStream(
            M, F(1, 2), stream.bases, stream.base_ids, stream.shifts, stream.emitted_by,
            stream.emitted_at,
        )
        text = format_manifest(stream)
        others = [again, table]
        if len(stream):
            # an empty manifest holds no `# by` line to carry provenance
            others.append(parse_manifest(text))
        for other in others:
            assert other == stream
            assert stream_provenance(other) == stream_provenance(stream)
            assert format_manifest(other) == text


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
