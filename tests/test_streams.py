"""Constraint streams: the set stream type, exact sparsity checking, and
the text interchange formats (with the header rule every parser shares)."""

import hashlib
import tracemalloc
from array import array
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
from lllcolor.hindman import parse_family
from lllcolor.lll import parse_instance
from lllcolor import streams
from lllcolor.streams import (
    _BLOCK_LINES,
    Coloring,
    ConstraintStream,
    format_coloring,
    format_manifest,
    gen_sets_stream,
    parse_coloring,
    parse_manifest,
    point_bound,
    single_color,
    validate_sparsity,
    write_coloring,
    write_manifest,
)
from lllcolor.verify import sparsity_counts_csv

F = Fraction


def items_stream(M, q, items, provenance=None, stage_bound=None):
    """The stream of ``items``, each a canonical tuple, built from the base
    table, base ids and shifts the pipeline's own split gives, with the
    ``(member, stage)`` pairs of ``provenance`` unzipped into two columns."""
    columns = (None, None) if provenance is None else (
        [member for member, _ in provenance], [stage for _, stage in provenance]
    )
    return ConstraintStream(M, q, *streams._split(items), *columns, stage_bound)


def stream_items(stream):
    """Every item's domain, each derived through ``dom``."""
    return tuple(map(stream.dom, range(len(stream))))


def stream_provenance(stream):
    """Every item's ``(member, stage)`` pair read from the two columns, or
    None for a stream without provenance."""
    if stream.emitted_by is None:
        return None
    return tuple(zip(stream.emitted_by, stream.emitted_at))


def sets_stream(items, M=2, q=F(1, 2), stage_bound=None, provenance=None):
    return items_stream(M, q, tuple(tuple(sorted(i)) for i in items), provenance, stage_bound)


def first_position_bound(i, n, s):
    """The translate builder's stage bound, for streams no builder made:
    no item from stage s starts below s."""
    return s <= n


def with_bound(stream):
    """``stream`` with each item's provenance set to member 0 and its first
    position as the stage, which ``first_position_bound`` holds exactly."""
    return items_stream(
        stream.M, stream.q, stream_items(stream), [(0, n) for n in stream.shifts],
        first_position_bound,
    )


def naive_sparsity(stream, window):
    """The sparsity sweep restated with plain loops: per-size counts as
    lists up to the last touched position, the bound verdicts, and whether
    the stream has a stage bound to check every item against."""
    tally = {}
    items = 0
    for j in range(len(stream)):
        m = len(stream.dom(j))
        inside = [n for n in stream.dom(j) if n < window]
        if m > window or not inside:
            continue
        items += 1
        per = tally.setdefault(m, {})
        for n in inside:
            per[n] = per.get(n, 0) + 1
    violations, near = [], []
    for m in sorted(tally):
        bound = point_bound(stream.q, m)
        for n in sorted(tally[m]):
            c = tally[m][n]
            if c > bound:
                violations.append((m, n, c, bound))
            elif 2 * c > bound:
                near.append((m, n, c, bound))
    held = stream.emitted_by is not None and stream.stage_bound is not None
    if held:
        for j in range(len(stream)):
            assert stream.stage_bound(stream.emitted_by[j], stream.dom(j)[0], stream.emitted_at[j])
    sizes = [len(stream.dom(j)) for j in range(len(stream))]
    return {
        "counts": {m: [per.get(n, 0) for n in range(max(per) + 1)] for m, per in tally.items()},
        "violations": tuple(violations),
        "near": tuple(near),
        "stage_bound": "held" if held else "none",
        "items_in_window": items,
        "max_size_seen": max(sizes, default=0),
    }


def sweep_fields(report):
    return {key: getattr(report, key) for key in (
        "counts", "violations", "near", "stage_bound", "items_in_window", "max_size_seen")}


class TestConstraintStream:
    def test_basic_accessors(self):
        s = sets_stream([{3, 1, 2}, {4, 5}])
        assert len(s) == 2
        assert s.dom(0) == (1, 2, 3)
        assert len(s.dom(1)) == 2

    def test_size_floor_enforced(self):
        with pytest.raises(StreamIntegrityError):
            sets_stream([{1}], M=2)

    def test_negative_position_rejected(self):
        # the item's first position is its shift
        with pytest.raises(StreamIntegrityError, match=r"^item 0: shift -1 is not a nonnegative"):
            sets_stream([{-1, 3}])

    def test_fingerprint_tracks_content(self):
        a = sets_stream([{0, 1}])
        b = sets_stream([{0, 1}])
        c = sets_stream([{0, 2}])
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_items_are_stored_as_bases_and_shifts(self):
        items = ((3, 5, 9), (1, 4), (7, 9, 13))
        provenance = ((0, 1), (2, 3), (4, 5))
        s = items_stream(2, F(1, 2), items, provenance)
        # bases in order of first use, each item a base id and its first position
        assert s.bases == ((0, 2, 6), (0, 3))
        assert (s.base_ids, s.shifts) == ((0, 1, 0), (3, 1, 7))
        assert stream_provenance(s) == provenance
        assert stream_items(s) == items and all(s.dom(j) == items[j] for j in range(3))
        assert (s.bases[s.base_ids[2]], s.shifts[2]) == ((0, 2, 6), 7)
        # the same table handed over by hand makes the same stream
        built = ConstraintStream(2, F(1, 2), s.bases, [0, 1, 0], [3, 1, 7], [0, 2, 4], [1, 3, 5])
        assert built == s and format_manifest(built) == format_manifest(s)

    def test_provenance_is_copied_into_two_columns(self):
        # a stream that kept the caller's list would change with it
        provenance = [(0, 1), (2, 3)]
        s = items_stream(2, F(1, 2), ((0, 1), (2, 3)), provenance)
        provenance.append((9, 9))
        assert stream_provenance(s) == ((0, 1), (2, 3))
        assert (s.emitted_by, s.emitted_at) == (array("q", [0, 2]), array("q", [1, 3]))
        # the builders hand over their own columns, which are copied too
        by, at = array("q", [0, 2]), array("q", [1, 3])
        built = ConstraintStream(2, F(1, 2), ((0, 1),), (0, 0), (0, 2), by, at)
        by[0] = 7
        assert built == s and stream_provenance(built) == ((0, 1), (2, 3))
        # a stream with provenance differs from one without it
        assert items_stream(2, F(1, 2), ((0, 1), (2, 3))) != s

    @pytest.mark.parametrize("column", ["shift", "member", "stage"])
    @pytest.mark.parametrize(
        "entry", [-3, True, 2.0, 2**63], ids=["negative", "bool", "float", "too-big"]
    )
    def test_int_column_entry_is_refused_by_index(self, column, entry):
        # each of these would reach the manifest as a token the parser
        # refuses, or as a value an array("q") column cannot hold
        columns = {"shift": [0, 1, 2], "member": [0, 1, 2], "stage": [0, 1, 2]}
        columns[column][1] = entry
        with pytest.raises(StreamIntegrityError) as exc:
            ConstraintStream(2, F(1, 2), ((0, 1),), (0, 0, 0), *columns.values())
        assert str(exc.value) == f"item 1: {column} {entry!r} is not a nonnegative int"
        assert exc.value.witness == (1,)

    # "items" hands the pairs to the test helper, which unzips them into the
    # two columns; "bases" hands the constructor the two columns itself
    @pytest.mark.parametrize("door", ["items", "bases"])
    @pytest.mark.parametrize(
        "entry, refused",
        [((5, -3), "stage -3"), ((True, 1), "member True"), ((1, 2.0), "stage 2.0"),
         ((0, 2**63), f"stage {2**63}")],
        ids=["negative", "bool", "float", "too-big"],
    )
    def test_provenance_entry_is_refused_by_index(self, door, entry, refused):
        # each pair lands in its two columns, whose check names the column
        provenance = ((0, 1), entry, (2, 3))
        items = ((0, 1), (1, 2), (2, 3))
        with pytest.raises(StreamIntegrityError) as exc:
            if door == "items":
                items_stream(2, F(1, 2), items, provenance)
            else:
                by, at = zip(*provenance)
                ConstraintStream(2, F(1, 2), ((0, 1),), (0, 0, 0), (0, 1, 2), by, at)
        assert str(exc.value) == f"item 1: {refused} is not a nonnegative int"
        assert exc.value.witness == (1,)

    @pytest.mark.parametrize(
        "by, at, message",
        [
            ([0, 1], [0, 1], "^provenance length must match item count$"),
            ([0, 1, 2], None, "^provenance needs both columns or neither$"),
            (None, [0, 1, 2], "^provenance needs both columns or neither$"),
        ],
        ids=["short", "members-alone", "stages-alone"],
    )
    def test_provenance_columns_come_together(self, by, at, message):
        with pytest.raises(InvalidInputError, match=message):
            ConstraintStream(2, F(1, 2), ((0, 1),), (0, 0, 0), (0, 1, 2), by, at)

    @pytest.mark.parametrize(
        "bases, base_ids, shifts, message",
        [
            (((1, 2),), (0,), (0,), r"^base 0: \(1, 2\) is not a tuple"),
            (((0,),), (0,), (0,), r"^base 0: \(0,\) is not a tuple"),
            (((0, 1), (0, 1)), (0, 1), (0, 5), "^the base table holds a base twice$"),
            (((0, 1), (0, 2)), (1, 0), (0, 5), "^base ids must number the bases"),
            (((0, 1), (0, 2)), (0, 0), (0, 5), "^base ids must number the bases"),
            (((0, 1.5),), (0,), (0,), r"^base 0: \(0, 1.5\) is not a tuple"),
            (((0, 1), (0, True)), (0, 1), (0, 5), r"^base 1: \(0, True\) is not a tuple"),
        ],
        ids=["off-zero", "undersized", "repeated", "unordered", "unused", "float-offset",
             "bool-offset"],
    )
    def test_builders_table_is_checked_once(self, bases, base_ids, shifts, message):
        # a float or bool offset would reach the manifest as a token the
        # parser refuses
        with pytest.raises(StreamIntegrityError, match=message):
            ConstraintStream(2, F(1, 2), bases, base_ids, shifts)

    @pytest.mark.parametrize(
        "base, shift",
        [([0, 1, 3], 1), (frozenset({0, 1}), 1), ((0, 3, 1), 1), ((0, 1, 1), 1), ((0, 5), -3),
         ((0,), 5), ((), 0)],
        ids=["list", "frozenset", "unsorted", "repeated", "negative", "undersized", "empty"],
    )
    def test_non_canonical_item_is_refused_by_index(self, base, shift):
        # the constructor sorts nothing: item 1, handed over as its base
        # and its shift, is refused with the index of the base or the item
        with pytest.raises(StreamIntegrityError) as exc:
            ConstraintStream(2, F(1, 2), ((0, 1), base), (0, 1, 0), (0, shift, 2))
        assert str(exc.value) == (
            f"item 1: shift {shift} is not a nonnegative int" if shift < 0 else
            f"base 1: {base!r} is not a tuple of at least 2 increasing int positions from 0"
        )
        assert exc.value.witness == (1,)

    def test_fingerprint_comes_from_manifest_text(self):
        import hashlib

        s = sets_stream([{0, 1}, {2, 5}])
        text = format_manifest(s)
        assert s.fingerprint() == hashlib.sha256(text.encode()).hexdigest()[:16]


class TestForbiddenRows:
    """A set forbids the two constant rows on its domain: the bits on a head
    of the domain violate it while one of those rows still agrees."""

    def test_is_violated_on_a_prefix(self):
        head = (0, 1, 2, 3)
        assert single_color(head[:0], b"00")
        assert single_color(head[:2], b"00")
        assert not single_color(head[:2], b"01")
        assert single_color(head, "1111") and not single_color(head, "1101")

    def test_is_violated_matches_direct_scan(self):
        head = (0, 2, 4)
        for mask in range(32):
            bits = bytes(48 + ((mask >> n) & 1) for n in range(5))
            constant = len({bits[n] for n in (0, 2, 4)}) == 1
            assert single_color(head, bits) == constant

    @settings(max_examples=200, deadline=None)
    @given(
        st.frozensets(st.integers(0, 15), min_size=1, max_size=8),
        st.lists(st.sampled_from("01"), min_size=16, max_size=16).map("".join),
        st.sampled_from([str, lambda b: b.encode("ascii"), lambda b: bytearray(b, "ascii")]),
    )
    def test_is_violated_iff_a_constant_row_agrees(self, domain, bits, kind):
        # the domain as a stream holds it: a base from 0 and a shift
        dom = sorted(domain)
        shift = dom[0]
        base = tuple(n - shift for n in dom)
        for cut in range(len(dom) + 1):
            head = [bits[n] for n in dom[:cut]]
            agrees = any(head == [c] * cut for c in "01")
            assert single_color(base[:cut], kind(bits), shift) == agrees
        # the whole domain, the last head above, is the whole base
        assert single_color(base, kind(bits), shift) == agrees


class TestPointBound:
    def test_exact_halves(self):
        # 2^(m/2): exact at even m, floor of the irrational value at odd m
        assert point_bound(F(1, 2), 4) == 4
        assert point_bound(F(1, 2), 5) == 5  # 2^2.5 = 5.656...
        assert point_bound(F(1, 2), 8) == 16
        assert point_bound(F(1, 2), 3) == 2  # 2^1.5 = 2.828...

    def test_other_exponents(self):
        assert point_bound(F(1, 3), 9) == 8
        assert point_bound(F(2, 3), 6) == 16

    def test_bound_is_tight(self):
        # b = point_bound(q, m) is the exact threshold: b**d <= 2**(a*m) < (b+1)**d
        for q in (F(1, 2), F(1, 3), F(2, 5), F(3, 7), F(13, 17), F(999, 1000)):
            a, d = q.numerator, q.denominator
            for m in range(0, 60):
                b = point_bound(q, m)
                assert b**d <= 2 ** (a * m) < (b + 1) ** d


class TestValidateSparsity:
    def test_empty_stream(self):
        s = sets_stream([], M=2)
        rep = validate_sparsity(s, 16)
        assert rep.ok and rep.items_in_window == 0

    def test_pass_with_scattered_sets(self):
        s = with_bound(gen_sets_stream(5, 40, 512, 4))
        rep = validate_sparsity(s, 512)
        assert rep.ok
        assert rep.stage_bound == "held"

    def test_synthetic_violation_has_witness(self):
        # point 0 lies in three size-2 sets; the bound at m=2, q=1/2 is 2
        s = sets_stream([{0, 1}, {0, 2}, {0, 3}], M=2)
        rep = validate_sparsity(s, 8)
        assert not rep.ok
        assert (2, 0, 3, 2) in rep.violations

    def test_inconsistent_locality_raises(self):
        # the stage bound is the stream's locality oracle, and item 1, which
        # starts at 2 but was emitted at stage 3, breaks it
        s = sets_stream(
            [{0, 1}, {2, 3}], stage_bound=first_position_bound, provenance=((0, 0), (1, 3))
        )
        message = r"^item 1: member 1 emitted it at stage 3, past the stage bound"
        with pytest.raises(StreamIntegrityError, match=message) as exc:
            validate_sparsity(s, 4)
        assert exc.value.witness == (1,)

    def test_bound_is_put_each_item_s_member_first_position_and_stage(self):
        asked = []

        def bound(i, n, s):
            asked.append((i, n, s))
            return True

        provenance = ((4, 0), (2, 9), (4, 7))
        s = sets_stream([{0, 1}, {2, 3}, {5, 9}], stage_bound=bound, provenance=provenance)
        assert validate_sparsity(s, 4).stage_bound == "held"
        assert asked == [(4, 0, 0), (2, 2, 9), (4, 5, 7)]

    def test_window_validation(self):
        with pytest.raises(InvalidParameterError):
            validate_sparsity(sets_stream([], M=2), 0)

    def test_counts_follow_the_stream_not_the_window(self):
        s = gen_sets_stream(9, 25, 256, 4)
        small = validate_sparsity(s, 2**12)
        large = validate_sparsity(s, 2**22)
        assert small.counts == large.counts
        assert (small.violations, small.near) == (large.violations, large.near)
        assert sparsity_counts_csv(small) == sparsity_counts_csv(large)
        top = max(s.dom(j)[-1] for j in range(len(s)))
        cells = sum(len(arr) for arr in large.counts.values())
        assert cells <= len(large.counts) * (top + 1)
        assert all(arr[-1] for arr in large.counts.values())

    def test_locality_lie_past_every_touched_position_raises(self):
        # item 2 starts past the window, past every position the sweep
        # counts, yet it is still put to the bound, and it is the first
        # item the bound refuses
        provenance = ((0, 0), (0, 2), (0, 2000), (0, 3000))
        s = sets_stream(
            [{0, 1, 5}, {2, 3}, {1500, 1501}, {1600, 1601}], stage_bound=first_position_bound,
            provenance=provenance,
        )
        with pytest.raises(StreamIntegrityError) as exc:
            validate_sparsity(s, 1024)
        assert exc.value.witness == (2,)

    def test_counts_match_direct_recount(self):
        s = gen_sets_stream(9, 25, 256, 4)
        rep = validate_sparsity(s, 256)
        direct = {}
        for j in range(len(s)):
            for n in s.dom(j):
                key = (len(s.dom(j)), n)
                direct[key] = direct.get(key, 0) + 1
        for (m, n), c in direct.items():
            assert rep.counts[m][n] == c

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        count=st.integers(0, 20),
        M=st.integers(2, 6),
        spread=st.integers(0, 8),
        span=st.integers(8, 256),
        window=st.one_of(st.integers(1, 16), st.integers(17, 512)),
    )
    def test_sweep_matches_naive_recount(self, seed, count, M, spread, span, window):
        # windows below an item's size, windows that cut domains, and
        # windows past every position; the generator's span holds at least
        # 28 sets of each size, so it finds 20 distinct ones
        s = gen_sets_stream(seed, count, max(span, 4 * (M + spread)), M, spread=spread)
        assert sweep_fields(validate_sparsity(s, window)) == naive_sparsity(s, window)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), window=st.integers(1, 300))
    def test_sweep_of_shifted_bases_matches_naive_recount(self, data, window):
        # translates of a few bases: shifts dense enough for a base's items
        # to be counted at once or too sparse for it, bases of one size
        # side by side, repeated items, and windows that cut domains
        items = []
        for rest in data.draw(st.lists(st.frozensets(st.integers(1, 40), min_size=1, max_size=5),
                                       min_size=1, max_size=4)):
            base = (0, *sorted(rest))
            # a run of consecutive shifts, as a builder emits them, and a
            # few scattered ones
            start, run = data.draw(st.integers(0, 250)), data.draw(st.integers(0, 120))
            scattered = data.draw(st.lists(st.integers(0, 250), max_size=8))
            shifts = [*range(start, start + run), *scattered]
            items += [tuple(s + x for x in base) for s in shifts]
        s = items_stream(2, F(1, 2), tuple(data.draw(st.permutations(items))))
        if data.draw(st.booleans()):
            s = with_bound(s)
        assert sweep_fields(validate_sparsity(s, window)) == naive_sparsity(s, window)

    def test_large_sweep_matches_naive_recount(self):
        # more than 20 000 nonzero cells at both windows; 3600 cuts domains
        s = with_bound(gen_sets_stream(1, 3500, 4096, 8))
        for window in (4096, 3600):
            rep = validate_sparsity(s, window)
            assert rep.stage_bound == "held"
            assert sweep_fields(rep) == naive_sparsity(s, window)

    @pytest.mark.parametrize("window", [16, 512, 3600])
    def test_without_an_oracle_nothing_is_cross_checked(self, window):
        # the same sweep as with a bound attached; a stream with no bound,
        # or with a bound but no provenance to put to it, reads "none"
        s = gen_sets_stream(1, 3500, 4096, 8)
        unprovenanced = ConstraintStream(
            s.M, s.q, s.bases, s.base_ids, s.shifts, stage_bound=first_position_bound
        )
        checked = validate_sparsity(with_bound(s), window)
        assert checked.stage_bound == "held"
        for bare in validate_sparsity(s, window), validate_sparsity(unprovenanced, window):
            assert bare.stage_bound == "none"
            for key in ("counts", "violations", "near", "items_in_window", "max_size_seen"):
                assert getattr(bare, key) == getattr(checked, key), key

    def test_cross_check_holds_one_size_at_a_time(self):
        # comp/sum translates, M = 8, 50 members over 4096, seed 7: 4 177
        # sets in 50 sizes, 6 333 nonzero cells.  With a locality
        # cross-check of every cell, ids per size and one size's expected
        # lists at a time peaked at 1.37 MB under tracemalloc on Python
        # 3.10-3.13, 0.6 MB of it the report; the stage bound adds nothing
        # that outlives one item
        from lllcolor.hindman import build_translate_stream, gen_family
        from lllcolor.rng import derive_seed

        sizes = tuple(16 + i for i in range(50))
        stream = build_translate_stream(gen_family(derive_seed(7, 1), 50, 128, "ce", sizes), 8)
        tracemalloc.start()
        try:
            rep = validate_sparsity(stream, 4096)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (len(stream), len(rep.counts)) == (4177, 50)
        assert sum(len(arr) - arr.count(0) for arr in rep.counts.values()) == 6333
        assert rep.ok and rep.stage_bound == "held"
        assert peak < 2_000_000

    def test_both_builders_install_an_oracle(self):
        from lllcolor.hindman import (
            build_image_stream,
            build_translate_stream,
            builtin_addition_like,
            gen_family,
        )

        ce = gen_family(2, 3, 128, "ce", (10, 11, 12))
        sigma2 = gen_family(3, 3, 512, "sigma2", tuple(2 * (19 + i) + 6 for i in range(3)))
        for stream in (
            build_translate_stream(ce, 4),
            build_image_stream(sigma2, builtin_addition_like("absdiff"), 19),
        ):
            assert stream.stage_bound is not None
            # a window no item fits in still checks every item's stage
            assert validate_sparsity(stream, 64).stage_bound == "held"
            assert validate_sparsity(stream, 1024).stage_bound == "held"
            # a parse of the manifest carries no bound
            parsed = parse_manifest(format_manifest(stream))
            assert validate_sparsity(parsed, 1024).stage_bound == "none"


class TestGenSetsStream:
    def test_deterministic(self):
        a = gen_sets_stream(3, 30, 512, 16)
        b = gen_sets_stream(3, 30, 512, 16)
        assert stream_items(a) == stream_items(b)

    def test_more_sets_than_the_window_holds_raises(self):
        # 8 points hold 28 distinct 2-sets: a 29th can never be found
        with pytest.raises(InvalidParameterError, match="fewer than 29 distinct sets"):
            gen_sets_stream(0, 29, 8, 2, spread=0)
        assert len(set(stream_items(gen_sets_stream(0, 28, 8, 2, spread=0)))) == 28

    def test_meets_hypotheses(self):
        s = gen_sets_stream(3, 200, 4096, 16)
        assert len(s) == 200
        assert all(len(s.dom(j)) >= 16 for j in range(200))
        assert validate_sparsity(s, 4096).ok


class TestColoringFormat:
    def test_round_trip(self):
        col = Coloring("0110" * 40, 77, "abcd1234abcd1234", 64, 3)
        text = format_coloring(col)
        back = parse_coloring(text)
        assert back == col
        assert back.committed_len == 160

    @pytest.mark.parametrize("fingerprint", ["", "0123456789abcdef"])
    @pytest.mark.parametrize("bits", ["", "01", "0110" * 40])
    def test_round_trip_with_and_without_fingerprint(self, fingerprint, bits):
        # a coloring built without a stream writes no `# stream` comment
        col = Coloring(bits, 5, fingerprint, 64, 2)
        text = format_coloring(col)
        assert parse_coloring(text) == col
        assert ("# stream" in text) == bool(fingerprint)

    def test_blocks_write_the_coloring_text(self, tmp_path):
        # 2**20 bits, 16 384 lines of 64.  Building the whole text, then
        # writing it, peaked at 4 MB under tracemalloc; blocks of 2 048
        # lines peak at 0.52 MB
        col = Coloring("0110" * (1 << 18), 3, "0123456789abcdef", 64, 15)
        # the text written out by hand, not by the writer under test
        text = "# stream 0123456789abcdef\n# phases 64 15\ncoloring 1048576 3\n" + "".join(
            col.bits[k : k + 64] + "\n" for k in range(0, 1 << 20, 64)
        )
        blocks = []
        write_coloring(col, blocks.append)
        assert "".join(blocks) == text == format_coloring(col)
        assert [b.count("\n") for b in blocks[:-1]] == [_BLOCK_LINES] * (len(blocks) - 1)
        with (tmp_path / "coloring.txt").open("w", encoding="utf-8") as file:
            tracemalloc.start()
            try:
                write_coloring(col, file.write)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert parse_coloring((tmp_path / "coloring.txt").read_text(encoding="utf-8")) == col
        assert peak < 800_000

    def test_length_mismatch(self):
        with pytest.raises(ParseError):
            parse_coloring("coloring 8 0\n0101\n")

    def test_bits_must_be_binary(self):
        with pytest.raises(InvalidInputError, match="coloring bits must be 0/1 characters"):
            Coloring("0120", 0, "", 64, 1)
        assert Coloring("", 0, "", 64, 0).committed_len == 0

    def test_bad_phases_comment_names_its_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_coloring("# stream abcd\n# phases a b\ncoloring 2 0\n01\n")

    @pytest.mark.parametrize("fields, value", [("64 -1", -1), ("-64 1", -64)],
                             ids=["phase-count", "phase-base"])
    def test_negative_phases_field_names_its_line(self, fields, value):
        # refused like a negative bit count
        with pytest.raises(ParseError, match=f"^line 1: phases field {value} is negative$"):
            parse_coloring(f"# phases {fields}\ncoloring 2 0\n01\n")

    def test_bad_bit_line_names_its_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_coloring("# stream abcd\ncoloring 8 0\n01x1\n0101\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("01\ncoloring 2 0\n", "line 1: bit record before the coloring header"),
            ("coloring 2 0\n# stream abcd\n01\n# phases 64 1\n",
             "line 2: stream comment after the coloring header"),
            ("# stream abcd\ncoloring 2 0\n01\n# phases 64 1\n",
             "line 4: phases comment after the coloring header"),
            ("# stream ab\n# stream cd\ncoloring 2 0\n01\n", "line 2: repeated stream comment"),
            ("# phases 64 1\ncoloring 2 0\n# phases 64 2\n01\n",
             "line 3: repeated phases comment"),
        ],
        ids=["bits-before-header", "stream-after-header", "phases-after-header",
             "two-stream-comments", "two-phases-comments"],
    )
    def test_each_coloring_record_is_read_once_in_order(self, text, message):
        with pytest.raises(ParseError, match=f"^{message}$"):
            parse_coloring(text)


class TestManifestFormat:
    def test_sets_round_trip(self):
        s = sets_stream([{0, 1, 5}, {2, 3}], provenance=((0, 5), (1, 7)))
        text = format_manifest(s)
        assert "# by 0 at 5" in text
        back = parse_manifest(text)
        assert back == items_stream(s.M, s.q, stream_items(s), stream_provenance(s))

    def test_each_item_is_checked_once(self, monkeypatch):
        # the reader checks each item on its line, the constructor each
        # distinct base; nothing checks an item twice
        text = format_manifest(gen_sets_stream(0, 50, 512, 3))
        check, calls = streams.is_canonical, []
        monkeypatch.setattr(streams, "is_canonical", lambda dom, M: calls.append(dom) or check(dom, M))
        s = parse_manifest(text)
        assert len(s) == len(s.bases) == 50
        assert len(calls) == 100

    def test_truncated_rejected(self):
        s = sets_stream([{0, 1, 5}])
        text = format_manifest(s)
        with pytest.raises(ParseError):
            parse_manifest(text.replace("item 0 3 0 1 5", "item 0 3 0 1"))

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_manifest("item 0 2 0 1\n")

    def test_bad_provenance_integers_name_their_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_manifest("stream sets M 2 q 1/2\n# by x at 3\nitem 0 2 0 1\n")

    @pytest.mark.parametrize("item", [
        "item 0 2 -1 3", "item 0 3 1 1 2", "item 0 2 3 1",
        "item 0 4 13 12 14 15", "item 0 4 12 12 14 15",
        # the first fault is reported, not a malformed record after it
        "item 0 2 3 1\nitem 1 9 0 1",
    ])
    def test_positions_must_increase_from_zero(self, item):
        with pytest.raises(ParseError, match="^line 3: positions must be nonnegative, increasing$"):
            parse_manifest(f"stream sets M 2 q 1/2\n# by 0 at 12\n{item}\n")

    def test_item_below_M_names_its_line(self):
        with pytest.raises(ParseError, match="line 3: item 1 has size 2 below the minimum 3"):
            parse_manifest("stream sets M 3 q 1/2\nitem 0 3 0 1 2\nitem 1 2 1 3\n")

    def test_item_before_header_names_its_line(self):
        with pytest.raises(ParseError, match="line 1: item record before the stream header"):
            parse_manifest("item 0 3 0 1 2\nstream sets M 3 q 1/2\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# by 0 at 1\nitem 0 2 0 1\nitem 1 2 0 2\n",
             "line 4: a provenance line must precede every item or none"),
            ("item 0 2 0 1\n# by 1 at 1\nitem 1 2 0 2\n",
             "line 4: a provenance line must precede every item or none"),
            ("# by 0 at 1\n# by 0 at 2\nitem 0 2 0 1\n", "line 3: repeated provenance line"),
            ("# by 0 at 1\nitem 0 2 0 1\n# by 1 at 1\n",
             "line 4: provenance line with no item after it"),
        ],
        ids=["dropped-after-item-0", "missing-on-item-0", "two-for-one-item", "after-last-item"],
    )
    def test_provenance_is_read_once_or_refused(self, text, message):
        # a parse that accepted any of these would format back to other text
        with pytest.raises(ParseError, match=f"^{message}$"):
            parse_manifest("stream sets M 2 q 1/2\n" + text)

    @pytest.mark.parametrize("value", ["-3", str(2**63)])
    def test_provenance_out_of_range_names_its_line(self, value):
        # a provenance column holds nonnegative signed 8-byte ints; the reader
        # refuses any other field on its line, for `lllcolor verify` too
        message = r"^line 4: provenance must lie in \[0, 2\*\*63\)$"
        with pytest.raises(ParseError, match=message):
            parse_manifest(
                f"stream sets M 2 q 1/2\n# by 0 at 0\nitem 0 2 0 1\n# by 5 at {value}\nitem 1 2 0 2\n"
            )

    @pytest.mark.parametrize("dom", [(2**63, 2**63 + 1), (2**63 - 2, 2**63)])
    def test_position_of_2_63_or_more_names_its_line(self, dom):
        # as for provenance, the reader refuses the item on its line, so
        # parse_manifest and `lllcolor verify` report the same fault
        with pytest.raises(ParseError, match=r"^line 2: positions must lie below 2\*\*63$"):
            parse_manifest(f"stream sets M 2 q 1/2\nitem 0 2 {dom[0]} {dom[1]}\n")

    def test_provenance_before_the_header_names_its_line(self):
        with pytest.raises(ParseError, match="^line 1: provenance line before the stream header$"):
            parse_manifest("# by 0 at 1\nstream sets M 2 q 1/2\nitem 0 2 0 1\n")

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        count=st.integers(1, 25),
        M=st.integers(2, 6),
        with_provenance=st.booleans(),
        fault=st.sampled_from(["swap", "repeat", "negative", "short"]),
        data=st.data(),
    )
    def test_refused_item_is_named_on_its_line(
        self, seed, count, M, with_provenance, fault, data
    ):
        # the manifest reader refuses the item on its own line
        items = stream_items(gen_sets_stream(seed, count, 400, M))
        provenance = tuple((j, 2 * j) for j in range(count)) if with_provenance else None
        lines = format_manifest(items_stream(M, F(1, 2), items, provenance)).splitlines()
        j = data.draw(st.integers(0, count - 1))
        dom = list(items[j])
        i = data.draw(st.integers(0, len(dom) - 2))
        if fault == "swap":
            dom[i], dom[i + 1] = dom[i + 1], dom[i]
        elif fault == "repeat":
            dom[i + 1] = dom[i]
        elif fault == "negative":
            dom[0] = -1 - dom[0]
        else:
            dom = dom[: data.draw(st.integers(0, M - 1))]
        lineno = next(n for n, line in enumerate(lines, 1) if line.startswith(f"item {j} "))
        lines[lineno - 1] = f"item {j} {len(dom)} " + " ".join(map(str, dom))
        if fault == "short":
            message = f"item {j} has size {len(dom)} below the minimum {M}"
        else:
            message = "positions must be nonnegative, increasing"
        with pytest.raises(ParseError) as exc:
            parse_manifest("\n".join(lines) + "\n")
        assert str(exc.value) == f"line {lineno}: {message}"

    def test_parsed_stream_holds_one_int_per_distinct_position(self):
        # the stream holds its shifts and its bases' offsets, many past 256,
        # where the interpreter shares no ints
        back = parse_manifest(format_manifest(gen_sets_stream(4, 300, 1000, 8)))
        held = [*back.shifts, *chain.from_iterable(back.bases)]
        assert max(back.shifts) > 256
        assert len({id(n) for n in held}) == len(set(held))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        count=st.integers(0, 30),
        window=st.integers(48, 3000),
        q=st.sampled_from([F(1, 2), F(1, 3), F(3, 4)]),
        data=st.data(),
    )
    def test_round_trip_is_byte_exact(self, seed, count, window, q, data):
        items = stream_items(gen_sets_stream(seed, count, window, 4, q=q))
        provenance = data.draw(st.none() | st.lists(
            st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
            min_size=len(items), max_size=len(items)))
        s = items_stream(4, q, items, provenance)
        text = format_manifest(s)
        back = parse_manifest(text)
        assert format_manifest(back) == text
        assert back.fingerprint() == s.fingerprint()

    def test_every_way_to_write_an_item_gives_its_positions(self):
        # translates of a dense base, gathered from the table of position
        # texts; a base with fewer offsets than a quarter of its span and
        # items past the table, which is no longer than the positions the
        # items list, written word by word; one-offset items
        items = (
            *(tuple(s + x for x in (0, 1, 3)) for s in range(40)),
            (2, 32), (9, 39), (5,), (7,), (10**6, 10**6 + 2),
        )
        s = items_stream(1, F(1, 2), items)
        text = "".join(f"item {j} {len(d)} {' '.join(map(str, d))}\n" for j, d in enumerate(items))
        assert format_manifest(s) == "stream sets M 1 q 1/2\n" + text
        assert parse_manifest(format_manifest(s)) == s

    @pytest.mark.parametrize(
        "provenance, block, lines",
        [
            (provenance, block, lines)
            for provenance in (False, True)
            # an odd block lets a manifest with provenance, whose line count
            # is odd, fill a block exactly
            for block in (_BLOCK_LINES, _BLOCK_LINES - 1)
            for lines in (block - 1, block, block + 1)
            if not provenance or lines % 2
        ],
    )
    def test_blocks_join_to_the_manifest_at_a_block_edge(
        self, monkeypatch, provenance, block, lines
    ):
        monkeypatch.setattr(streams, "_BLOCK_LINES", block)
        count = (lines - 1) // 2 if provenance else lines - 1
        items = tuple((j, j + 1 + j % 5) for j in range(count))
        by = tuple((j % 7, j) for j in range(count)) if provenance else None
        s = items_stream(2, F(1, 2), items, by)
        # the manifest written out by hand, not by the writer under test
        text = "stream sets M 2 q 1/2\n" + "".join(
            (f"# by {j % 7} at {j}\n" if provenance else "") + f"item {j} 2 {j} {j + 1 + j % 5}\n"
            for j in range(count)
        )
        assert text.count("\n") == lines
        blocks = []
        fingerprint = write_manifest(s, blocks.append)
        assert "".join(blocks) == text == format_manifest(s)
        assert all(b.endswith("\n") for b in blocks)
        full, rest = divmod(lines, block)
        assert [b.count("\n") for b in blocks] == [block] * full + [rest] * (rest > 0)
        assert fingerprint == hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
        assert fingerprint == parse_manifest(text).fingerprint() == s.fingerprint()

    @pytest.mark.parametrize("provenance", [None, ()])
    def test_empty_stream_is_one_block_of_its_header(self, provenance):
        s = items_stream(3, F(1, 3), (), provenance)
        blocks = []
        fingerprint = write_manifest(s, blocks.append)
        assert blocks == ["stream sets M 3 q 1/3\n"]
        assert fingerprint == hashlib.sha256(blocks[0].encode()).hexdigest()[:16]
        assert fingerprint == parse_manifest(blocks[0]).fingerprint() == s.fingerprint()

    def test_a_stream_keeps_the_fingerprint_it_has(self):
        s = sets_stream([{0, 1}, {2, 5}])
        back = parse_manifest(format_manifest(s).replace("item 1 2", "item 1  2"))
        read = back.fingerprint()
        # the writer returns the hash of the text it writes, and leaves the
        # parsed stream the hash of the text it was read from
        assert write_manifest(back, len) == s.fingerprint() != read
        assert back.fingerprint() == read

    def test_parsed_fingerprint_hashes_the_text_read(self):
        import hashlib

        s = sets_stream([{0, 1}, {2, 5}])
        text = format_manifest(s)
        assert parse_manifest(text).fingerprint() == s.fingerprint()
        respaced = text.replace("item 1 2", "item 1  2")
        back = parse_manifest(respaced)
        assert back == s
        assert back.fingerprint() == hashlib.sha256(respaced.encode()).hexdigest()[:16]
        assert back.fingerprint() != s.fingerprint()


@pytest.mark.parametrize(
    "parse, text, header",
    [
        (parse_family, "family ce 2 10\nat 1 3 1\nfamily ce 1 10\n", "family"),
        (parse_manifest, "stream sets M 2 q 1/2\nitem 0 2 0 1\nstream sets M 5 q 1/2\n",
         "stream"),
        (parse_coloring, "coloring 2 1\n01\ncoloring 2 9\n", "coloring"),
        (parse_instance, "vars 1\nv 0 2 1/2 1/2\nvars 2\n", "vars"),
    ],
    ids=["family", "manifest", "coloring", "instance"],
)
def test_repeated_header_names_its_line(parse, text, header):
    with pytest.raises(ParseError, match=f"line 3: repeated {header} header"):
        parse(text)


INSTANCE_HEAD = "vars 2\nv 0 2 1/2 1/2\nv 1 2 1/2 1/2\n"


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_manifest, "stream sets M 2 q 1/2\nitem 0 2 0 1\nbits 1 0\n",
         "line 3: unknown record 'bits'"),
        (parse_manifest, "stream sets M 2 q 1/2\n# by 0 2\nitem 0 2 0 1\n",
         "line 2: malformed record '# by 0 2'"),
        (parse_manifest, "stream sets M 2 q 1/2\n# by 0 on 2\nitem 0 2 0 1\n",
         "line 2: malformed record"),
        (parse_coloring, "# stream abcd\n# phases 64\ncoloring 2 0\n01\n",
         "line 2: malformed record '# phases 64'"),
        (parse_coloring, "# stream ab cd\ncoloring 2 0\n01\n", "line 1: malformed record"),
        (parse_manifest, "stream words M 2 q 1/2\n", "line 1: unknown stream kind 'words'"),
        (parse_manifest, "stream sets M 2 q 3/2\n", r"line 1: q must lie in \(0, 1\)"),
        (parse_manifest, "stream sets M 2 q 1/0\n", "line 1: malformed record"),
        (parse_family, "family ce 1 0\n", "line 1: stage_count must be at least 1"),
        (parse_family, "family c.e. 1 10\n", "line 1: unknown family mode"),
        (parse_instance, "vars 1\nv 0 2 1/0 1\n", "line 2: malformed record"),
        (parse_instance, INSTANCE_HEAD + "v 0 2 1/2 1/2\n",
         "line 4: duplicate specification for variable 0"),
        (parse_instance, INSTANCE_HEAD + "e 0 1 0\nf 0\ne 0 1 1\n",
         "line 6: event ids must be distinct"),
        (parse_instance, INSTANCE_HEAD + "e 0 2 0 7\nf 0 0\n",
         "line 4: event 0 references variable 7 with no specification"),
        (parse_instance, INSTANCE_HEAD + "e 0 2 0 1\nf 0 0\nf 1 5\n",
         "line 6: event 0: value 5 out of range for variable 1"),
        (parse_family, "family ce -1 10\n", "line 1: member count -1 is negative"),
        (parse_instance, "vars -1\n", "line 1: variable count -1 is negative"),
        (parse_coloring, "coloring -3 0\n", "line 1: bit count -3 is negative"),
        (parse_instance, "# by hand\nvars 2\nv 0 2 1/2 1/2\n",
         "line 2: header declares 2 variables, found 1"),
        (parse_coloring, "# stream abcd\ncoloring 3 0\n01\n",
         "line 2: header declares 3 bits, found 2"),
    ],
    ids=[
        "bits-record", "by-arity", "by-shape",
        "phases-arity", "stream-arity", "stream-kind", "stream-q", "stream-q-zero-denominator",
        "family-stages", "family-mode", "weight-zero-denominator", "duplicate-variable",
        "duplicate-event-id", "undeclared-variable", "value-out-of-range", "family-count",
        "vars-count", "coloring-count", "vars-mismatch", "coloring-mismatch",
    ],
)
def test_record_fault_names_its_line(parse, text, message):
    with pytest.raises(ParseError, match=message):
        parse(text)


def test_free_form_comments_stay_ignored():
    manifest = "# built by hand\nstream sets M 2 q 1/2\n# bylines follow\nitem 0 2 0 1\n"
    assert stream_items(parse_manifest(manifest)) == ((0, 1),)
    coloring = "# phased in\n# streamed\ncoloring 2 0\n01\n"
    assert parse_coloring(coloring) == Coloring("01", 0, "", 0, 0)
