"""Core local-lemma module: exact probabilities, certification, and the
deterministic resampler, checked against independent brute-force oracles."""

import itertools
import math
from bisect import bisect_left
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lllcolor.errors import (
    InvalidInstanceError,
    InvalidInputError,
    InvalidParameterError,
    NonConvergenceError,
    ParseError,
    UnsatisfiableEventError,
)
from lllcolor.lll import (
    Assignment,
    ConditionRefusal,
    Event,
    LLLCertificate,
    VarSpec,
    _sample,
    _thresholds,
    check_condition,
    condition_report_json,
    default_budget,
    dependency_neighbors,
    event_probability,
    fair_bit,
    format_instance,
    parse_instance,
    resample_sets,
    solve_moser_tardos,
    verify_assignment,
)
from lllcolor.rng import u64

F = Fraction


def bits(n):
    return [fair_bit(i) for i in range(n)]


def enum_probability(event, variables):
    """Independent oracle: enumerate the full cube and add up weights."""
    table = {v.index: v for v in variables}
    total = F(0)
    ranges = [range(table[n].range_size) for n in event.vbl]
    for combo in itertools.product(*ranges):
        if combo in event.forbidden:
            p = F(1)
            for n, val in zip(event.vbl, combo):
                p *= table[n].weights[val]
            total += p
    return total


def naive_condition(events, variables, r, q):
    """Independent oracle for check_condition: enumerated probabilities
    against ``q * r_j`` times ``1 - r_t`` over the sorted neighbours, one
    factor at a time.  Returns the first violating id (or None) and the margins."""
    r_by_id = {e.id: x for e, x in zip(events, r)}
    margins = []
    for e, x in zip(events, r):
        bound = q * x
        for t in sorted(f.id for f in events if f.id != e.id and set(f.vbl) & set(e.vbl)):
            bound *= 1 - r_by_id[t]
        margins.append(enum_probability(e, variables) - bound)
    first = next((e.id for e, m in zip(events, margins) if m > 0), None)
    return first, tuple(margins)


@st.composite
def ternary(draw, index):
    """A ternary variable with non-uniform, mostly non-dyadic weights."""
    a, b, c = draw(st.tuples(*[st.integers(1, 9)] * 3).filter(lambda w: len(set(w)) > 1))
    total = a + b + c
    return VarSpec(index, 3, (F(a, total), F(b, total), F(c, total)))


@st.composite
def event_over(draw, eid, variables, min_rows=1):
    """An event on a random support of ``variables`` with up to four rows."""
    ranges = {v.index: v.range_size for v in variables}
    sup = tuple(sorted(draw(st.sets(st.sampled_from(sorted(ranges)), min_size=1))))
    rows = draw(st.sets(
        st.tuples(*[st.integers(0, ranges[n] - 1) for n in sup]), min_size=min_rows, max_size=4))
    return Event(eid, sup, tuple(rows))


def naive_moser_tardos(events, variables, seed, budget=100000):
    """Reference resampler: rescan all events from scratch every step.  A
    spent budget raises what the solver raises: the resamplings, the last 64
    resampled ids and the sorted ids of every violated event."""
    cums = {v.index: _thresholds(v) for v in variables}
    counters = {v.index: 0 for v in variables}
    cur = {v.index: _sample(cums[v.index], u64(seed, v.index, 0)) for v in variables}
    by_id = {e.id: e for e in events}
    trace = []
    while True:
        violated = sorted(e.id for e in events if tuple(cur[n] for n in e.vbl) in e.forbidden)
        if not violated:
            return dict(sorted(cur.items()))
        if len(trace) == budget:
            raise NonConvergenceError(budget, trace[-64:], violated)
        trace.append(violated[0])
        for n in by_id[violated[0]].vbl:
            counters[n] += 1
            cur[n] = _sample(cums[n], u64(seed, n, counters[n]))


@st.composite
def mixed_instance(draw):
    """Fair bits and non-uniform ternaries under events of up to four rows,
    with distinct ids in shuffled order.  An event whose rows fill its cube
    is left out: the solver refuses it before resampling."""
    count = draw(st.integers(1, 6))
    variables = [draw(st.one_of(st.just(fair_bit(n)), ternary(n))) for n in range(count)]
    ranges = {v.index: v.range_size for v in variables}
    ids = draw(st.lists(st.integers(0, 60), min_size=1, max_size=8, unique=True))
    events = [draw(event_over(eid, variables)) for eid in ids]
    return variables, [e for e in events if len(e.forbidden) < math.prod(ranges[n] for n in e.vbl)]


class TestEventProbability:
    def test_single_fair_coin(self):
        assert event_probability(Event(0, (0,), [(1,)]), bits(1)) == F(1, 2)

    def test_full_row_on_three_bits(self):
        ev = Event(0, (0, 1, 2), [(1, 0, 1)])
        assert event_probability(ev, bits(3)) == F(1, 8)
        assert enum_probability(ev, bits(3)) == F(1, 8)

    @pytest.mark.parametrize("m", [2, 4, 8, 11])
    def test_two_constant_rows(self, m):
        ev = Event(0, tuple(range(m)), [(0,) * m, (1,) * m])
        assert event_probability(ev, bits(m)) == F(1, 2 ** (m - 1))

    def test_full_cube_probability_one(self):
        rows = list(itertools.product((0, 1), repeat=3))
        ev = Event(0, (0, 1, 2), rows)
        assert event_probability(ev, bits(3)) == 1

    def test_missing_varspec(self):
        with pytest.raises(InvalidInstanceError):
            event_probability(Event(0, (0, 5), [(0, 0)]), bits(2))

    def test_biased_weights(self):
        v = VarSpec(0, 3, (F(1, 2), F(1, 3), F(1, 6)))
        ev = Event(0, (0,), [(1,), (2,)])
        assert event_probability(ev, [v]) == F(1, 2)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_matches_enumeration_oracle(self, data):
        nv = data.draw(st.integers(2, 5))
        sup = tuple(sorted(data.draw(
            st.sets(st.integers(0, nv - 1), min_size=1, max_size=nv))))
        rows = data.draw(st.sets(
            st.tuples(*[st.integers(0, 1) for _ in sup]), min_size=0, max_size=4))
        ev = Event(0, sup, tuple(rows))
        variables = bits(nv)
        got = event_probability(ev, variables)
        assert got == enum_probability(ev, variables)
        assert 0 <= got <= 1

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_matches_enumeration_oracle_on_ternary_weights(self, data):
        variables = [data.draw(ternary(n)) for n in range(data.draw(st.integers(1, 4)))]
        ev = data.draw(event_over(0, variables, min_rows=0))
        got = event_probability(ev, variables)
        assert got == enum_probability(ev, variables)
        assert 0 <= got <= 1


class TestDependencyNeighbors:
    def test_disjoint_supports(self):
        evs = [Event(0, (0, 1), [(0, 0)]), Event(1, (2, 3), [(0, 0)])]
        nbrs = dependency_neighbors(evs)
        assert nbrs == {0: frozenset({0}), 1: frozenset({1})}

    def test_pairwise_overlap(self):
        evs = [
            Event(0, (0, 1), [(0, 0)]),
            Event(1, (1, 2), [(0, 0)]),
            Event(2, (0, 2), [(0, 0)]),
        ]
        nbrs = dependency_neighbors(evs)
        assert all(nbrs[j] == frozenset({0, 1, 2}) for j in range(3))

    def test_chain(self):
        evs = [
            Event(0, (0, 1, 2), [(0, 0, 0)]),
            Event(1, (3, 4, 5), [(0, 0, 0)]),
            Event(2, (2, 3), [(0, 0)]),
        ]
        nbrs = dependency_neighbors(evs)
        assert nbrs[2] == frozenset({0, 1, 2})
        assert nbrs[0] == frozenset({0, 2})
        assert nbrs[1] == frozenset({1, 2})

    def test_duplicate_ids_rejected(self):
        evs = [Event(0, (0,), [(0,)]), Event(0, (1,), [(0,)])]
        with pytest.raises(InvalidInstanceError):
            dependency_neighbors(evs)


def three_event_fixture():
    evs = [
        Event(0, (0, 1, 2), [(0, 0, 0)]),
        Event(1, (0, 1, 2), [(1, 1, 1)]),
        Event(2, (0, 1, 2), [(0, 1, 0)]),
    ]
    return evs, bits(3)


class TestCheckCondition:
    def test_fixture_accepts_at_q_one(self):
        evs, variables = three_event_fixture()
        res = check_condition(evs, variables, [F(1, 3)] * 3, F(1))
        assert isinstance(res, LLLCertificate)
        # bound (1/3)(2/3)^2 = 4/27 against probability 1/8
        assert res.margins == (F(1, 8) - F(4, 27),) * 3
        assert res.margins[0] == F(-5, 216)

    def test_fixture_refuses_at_three_quarters(self):
        evs, variables = three_event_fixture()
        res = check_condition(evs, variables, [F(1, 3)] * 3, F(3, 4))
        assert isinstance(res, ConditionRefusal)
        assert res.first_violation == 0
        assert res.margins[0] == F(1, 8) - F(1, 9) == F(1, 72)

    def test_empty_event_list_accepts(self):
        res = check_condition([], bits(1), [], F(1))
        assert isinstance(res, LLLCertificate)
        assert res.margins == ()

    def test_q_monotonicity(self):
        # margins shrink as q grows, so acceptance at any q < 1 forces
        # acceptance at q = 1
        evs, variables = three_event_fixture()
        r = [F(1, 3)] * 3
        at_one = check_condition(evs, variables, r, F(1))
        for q in (F(9, 10), F(99, 100), F(31, 32)):
            res = check_condition(evs, variables, r, q)
            for m_q, m_1 in zip(res.margins, at_one.margins):
                assert m_1 <= m_q
            if isinstance(res, LLLCertificate):
                assert isinstance(at_one, LLLCertificate)

    def test_parameter_validation(self):
        evs, variables = three_event_fixture()
        with pytest.raises(InvalidParameterError):
            check_condition(evs, variables, [F(1, 3)] * 3, F(0))
        with pytest.raises(InvalidParameterError):
            check_condition(evs, variables, [F(3, 2)] * 3, F(1))
        with pytest.raises(InvalidParameterError):
            check_condition(evs, variables, [F(1, 3)] * 2, F(1))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_naive_oracle(self, data):
        # an r vector over one to four distinct values (drawn first, which
        # keeps the draw from collapsing onto one value), fair bits and
        # ternary variables, and multi-row events with shuffled ids
        k = data.draw(st.integers(1, 4))
        pool = data.draw(st.lists(
            st.fractions(F(1, 64), F(63, 64), max_denominator=64), min_size=k, max_size=k,
            unique=True))
        ids = data.draw(st.lists(st.integers(0, 50), min_size=1, max_size=8, unique=True))
        r = data.draw(st.permutations([pool[j % k] for j in range(len(ids))]))
        nv = data.draw(st.integers(1, 6))
        variables = [data.draw(st.one_of(st.just(fair_bit(n)), ternary(n))) for n in range(nv)]
        events = [data.draw(event_over(eid, variables)) for eid in ids]
        q = data.draw(st.sampled_from([F(1), F(3, 4), F(1, 6)]))
        got = check_condition(events, variables, r, q)
        first, margins = naive_condition(events, variables, r, q)
        if first is None:
            assert isinstance(got, LLLCertificate)
        else:
            assert isinstance(got, ConditionRefusal)
            assert got.first_violation == first
        assert got.margins == margins
        assert (got.r, got.q) == (tuple(r), q)

    def test_report_json_round(self):
        evs, variables = three_event_fixture()
        text = condition_report_json(check_condition(evs, variables, [F(1, 3)] * 3, F(1)))
        assert '"accepted": true' in text
        assert '"-5/216"' in text


class TestSolver:
    def test_forced_single_bit(self):
        for seed in range(5):
            a = solve_moser_tardos([Event(0, (0,), [(1,)])], bits(1), seed)
            assert a.values == {0: 0}

    def test_unsatisfiable_event(self):
        ev = Event(0, (0,), [(0,), (1,)])
        with pytest.raises(UnsatisfiableEventError):
            solve_moser_tardos([ev], bits(1), 0)

    def test_budget_exhaustion_carries_trace(self):
        evs = [Event(0, (0,), [(0,)]), Event(1, (0,), [(1,)])]
        with pytest.raises(NonConvergenceError) as exc:
            solve_moser_tardos(evs, bits(1), 3, budget=25)
        assert exc.value.resamplings == 25
        assert exc.value.trace
        assert exc.value.violated in ([0], [1])

    def test_deterministic_repeat(self):
        evs = []
        for j in range(8):
            sup = tuple(sorted({(3 * j + k) % 12 for k in range(4)}))
            evs.append(Event(j, sup, [(1,) * len(sup)]))
        variables = bits(12)
        a = solve_moser_tardos(evs, variables, 99)
        b = solve_moser_tardos(evs, variables, 99)
        assert a == b
        assert verify_assignment(a, evs) == []

    def test_matches_naive_reference(self):
        for seed in range(12):
            nv = 6 + seed % 5
            evs = []
            for e in range(8):
                sup = tuple(sorted({u64(seed, 50, e, t) % nv for t in range(3)}))
                row = tuple(u64(seed, 51, e, p) % 2 for p in range(len(sup)))
                evs.append(Event(e, sup, [row]))
            variables = bits(nv)
            fast = solve_moser_tardos(evs, variables, seed)
            slow = naive_moser_tardos(evs, variables, seed)
            assert dict(fast.values) == slow

    def test_matches_naive_reference_multirow(self):
        # two-row homogeneity-style events over fair bits
        for seed in range(8):
            nv = 8 + seed % 4
            evs = []
            for e in range(6):
                sup = tuple(sorted({u64(seed, 70, e, t) % nv for t in range(4)}))
                k = len(sup)
                evs.append(Event(e, sup, [(0,) * k, (1,) * k]))
            variables = bits(nv)
            fast = solve_moser_tardos(evs, variables, seed)
            slow = naive_moser_tardos(evs, variables, seed)
            assert dict(fast.values) == slow
            assert verify_assignment(fast, evs) == []

    def test_matches_naive_reference_nonbinary(self):
        for seed in range(6):
            variables = [
                VarSpec(0, 3, (F(1, 2), F(1, 4), F(1, 4))),
                VarSpec(1, 4, (F(1, 4),) * 4),
                VarSpec(2, 2, (F(1, 3), F(2, 3))),
                VarSpec(3, 3, (F(1, 6), F(1, 3), F(1, 2))),
            ]
            evs = []
            for e in range(6):
                sup = tuple(sorted({u64(seed, 80, e, t) % 4 for t in range(2)}))
                ranges = {0: 3, 1: 4, 2: 2, 3: 3}
                rows = []
                for r in range(1 + u64(seed, 81, e) % 2):
                    rows.append(tuple(
                        u64(seed, 82, e, r, p) % ranges[n] for p, n in enumerate(sup)
                    ))
                evs.append(Event(e, sup, rows))
            fast = solve_moser_tardos(evs, variables, seed)
            slow = naive_moser_tardos(evs, variables, seed)
            assert dict(fast.values) == slow

    def test_twenty_bits_thirty_events(self):
        # 30 random support-5 events (probability 1/32 each) over 20 fair
        # bits: dense overlaps, still solved and verified clean
        for seed in (0, 1, 2):
            evs = []
            for e in range(30):
                sup = set()
                t = 0
                while len(sup) < 5:
                    sup.add(u64(seed, 90, e, t) % 20)
                    t += 1
                sup = tuple(sorted(sup))
                row = tuple(u64(seed, 91, e, p) % 2 for p in range(5))
                evs.append(Event(e, sup, [row]))
            a = solve_moser_tardos(evs, bits(20), seed)
            assert verify_assignment(a, evs) == []

    def test_nonbinary_variables(self):
        variables = [VarSpec(0, 3, (F(1, 3),) * 3), VarSpec(1, 4, (F(1, 4),) * 4)]
        evs = [Event(0, (0, 1), [(0, 0), (1, 1), (2, 2)])]
        a = solve_moser_tardos(evs, variables, 4)
        assert verify_assignment(a, evs) == []
        assert a.values[0] < 3 and a.values[1] < 4

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**9))
    @example(seed=480)
    def test_solved_instances_verify_clean(self, seed):
        nv = 6 + seed % 6
        evs = []
        for e in range(6):
            sup = tuple(sorted({u64(seed, 60, e, t) % nv for t in range(3)}))
            row = tuple(u64(seed, 61, e, p) % 2 for p in range(len(sup)))
            evs.append(Event(e, sup, [row]))
        if all(
            verify_assignment(Assignment(dict(enumerate(values))), evs)
            for values in itertools.product((0, 1), repeat=nv)
        ):
            # about one seed in a thousand (480 among them) draws jointly
            # unsatisfiable events; the resampler must then fail loudly
            with pytest.raises(NonConvergenceError):
                solve_moser_tardos(evs, bits(nv), seed)
            return
        a = solve_moser_tardos(evs, bits(nv), seed)
        assert verify_assignment(a, evs) == []

    def test_naive_reference_exhausts_like_the_solver(self):
        # one bit that each event forbids in turn: the budget always runs out
        evs = [Event(0, (0,), [(0,)]), Event(1, (0,), [(1,)])]
        with pytest.raises(NonConvergenceError) as slow:
            naive_moser_tardos(evs, bits(1), 3, budget=70)
        assert slow.value.resamplings == 70
        assert len(slow.value.trace) == 64
        assert slow.value.violated in ([0], [1])
        with pytest.raises(NonConvergenceError) as fast:
            solve_moser_tardos(evs, bits(1), 3, budget=70)
        assert (fast.value.resamplings, fast.value.trace, fast.value.violated) == (
            slow.value.resamplings, slow.value.trace, slow.value.violated)

    @settings(max_examples=300, deadline=None)
    @given(instance=mixed_instance(), seed=st.integers(0, 10**6), budget=st.integers(1, 40))
    def test_matches_naive_reference_under_any_budget(self, instance, seed, budget):
        # the same values, or the same resamplings, trace and violated ids;
        # budgets this small leave many of these instances unsolved
        variables, events = instance
        assert resampled(
            lambda: dict(solve_moser_tardos(events, variables, seed, budget).values)
        ) == resampled(lambda: naive_moser_tardos(events, variables, seed, budget))


@st.composite
def phase_instance(draw):
    """A colorer-shaped phase: committed bits below a prefix, and sets in
    increasing id order whose committed head carries one color.  Each keeps
    a free position, and a set without a head keeps two.  Each record holds
    its domain as its base, with shift 0."""
    prefix = draw(st.integers(0, 6))
    committed = draw(st.lists(st.integers(0, 1), min_size=prefix, max_size=prefix))
    window = prefix + draw(st.integers(2, 8))
    ids = sorted(draw(st.sets(st.integers(0, 40), min_size=1, max_size=10)))
    sets = []
    for j in ids:
        dom = tuple(sorted(draw(st.sets(st.integers(0, window - 1), min_size=2, max_size=5))))
        cut = bisect_left(dom, prefix)
        if cut < len(dom) and len({committed[n] for n in dom[:cut]}) < 2:
            sets.append((j, dom, 0, cut, committed[dom[0]] if cut else None))
    return committed, sets


def as_events(committed, sets):
    """The same phase for the validated door: each set as its whole domain
    with both constant rows, fair bits on the free positions and each
    committed position as a variable fixed to its bit."""
    events = [Event(j, dom, [(0,) * len(dom), (1,) * len(dom)]) for j, dom, _, _, _ in sets]
    used = sorted({n for _, dom, _, _, _ in sets for n in dom})
    point_mass = {0: (1, 0), 1: (0, 1)}
    variables = [
        VarSpec(n, 2, point_mass[committed[n]]) if n < len(committed) else fair_bit(n)
        for n in used
    ]
    return events, variables


def resampled(solve):
    """What a solve returns, or the resamplings, trace and violated ids it
    exhausts its budget with."""
    try:
        return solve()
    except NonConvergenceError as exc:
        return exc.resamplings, exc.trace, exc.violated


class TestResampleSets:
    @pytest.mark.parametrize("u", [0, 2**63 - 1, 2**63, 2**64 - 1])
    def test_fair_bit_is_the_top_bit_of_its_sample(self, u):
        # the set core draws u >> 63 where the validated door draws through
        # the thresholds of fair_bit: both must pick the same bit
        assert u >> 63 == _sample(_thresholds(fair_bit(0)), u)

    @settings(max_examples=200, deadline=None)
    @given(phase=phase_instance(), seed=st.integers(0, 10**6),
           budget=st.one_of(st.integers(1, 30), st.just(None)))
    def test_matches_solve_moser_tardos(self, phase, seed, budget):
        # the free bits of the validated door on the same phase, or the same
        # budget exhaustion: small budgets and sets crowded into a short
        # window make many of these instances run out
        committed, sets = phase
        events, variables = as_events(committed, sets)
        budget = budget or default_budget(len(sets))
        core = resampled(lambda: resample_sets(sets, seed, budget))
        door = resampled(lambda: {
            n: v for n, v in solve_moser_tardos(events, variables, seed, budget).values.items()
            if n >= len(committed)
        })
        assert core == door

    @settings(max_examples=100, deadline=None)
    @given(phase=phase_instance(), seed=st.integers(0, 10**6), budget=st.integers(1, 30))
    def test_a_record_reads_its_positions_as_shift_plus_base(self, phase, seed, budget):
        # each set split into its first position and the offsets from it
        # resamples as the same set held whole with shift 0
        _, sets = phase
        moved = [(j, tuple(n - dom[0] for n in dom), dom[0], cut, head)
                 for j, dom, _, cut, head in sets]
        assert resampled(lambda: resample_sets(moved, seed, budget)) == resampled(
            lambda: resample_sets(sets, seed, budget))

    def test_exhaustion_matches_on_a_triangle(self):
        # no coloring gives three free 2-sets over three positions both colors
        sets = [(1, (0, 1), 0, 0, None), (4, (0, 2), 0, 0, None), (6, (1, 2), 0, 0, None)]
        events, variables = as_events([], sets)
        with pytest.raises(NonConvergenceError) as core:
            resample_sets(sets, 3, 40)
        with pytest.raises(NonConvergenceError) as door:
            solve_moser_tardos(events, variables, 3, 40)
        assert core.value.resamplings == door.value.resamplings == 40
        assert core.value.trace == door.value.trace
        assert core.value.violated == door.value.violated != []

    def test_head_color_is_never_needed_again(self):
        # a head of 1s leaves only a 0 to find among the free positions
        free = resample_sets([(0, (0, 1, 2, 3), 0, 2, 1)], 11, 100)
        assert set(free) == {2, 3}
        assert 0 in free.values()


class TestVerifyAssignment:
    def test_direct_match(self):
        ev = Event(7, (2, 5, 7), [(0, 0, 0)])
        zero = Assignment({n: 0 for n in range(8)})
        assert verify_assignment(zero, [ev]) == [7]

    def test_avoiding(self):
        ev = Event(7, (2, 5, 7), [(0, 0, 0)])
        a = Assignment({**{n: 0 for n in range(8)}, 5: 1})
        assert verify_assignment(a, [ev]) == []

    def test_missing_variable(self):
        with pytest.raises(InvalidInputError):
            verify_assignment(Assignment({0: 0}), [Event(0, (0, 1), [(0, 0)])])


class TestInstanceFormat:
    def test_round_trip(self):
        variables = [
            fair_bit(0),
            VarSpec(1, 3, (F(1, 2), F(1, 4), F(1, 4))),
        ]
        evs = [Event(0, (0, 1), [(0, 0), (1, 2)]), Event(1, (1,), [(2,)])]
        text = format_instance(variables, evs)
        got_vars, got_events = parse_instance(text)
        assert got_vars == variables
        assert got_events == evs

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_instance("vars 2\nv 0 2 1/2 1/2\n")
        with pytest.raises(ParseError):
            parse_instance("f 0 0\n")
        with pytest.raises(ParseError):
            parse_instance("v zero 2 1/2 1/2\n")

    def test_bad_weights_name_their_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_instance("vars 1\nv 0 2 1/2 1/3\n")

    def test_row_arity_names_its_line(self):
        with pytest.raises(ParseError, match="line 4"):
            parse_instance("vars 1\nv 0 2 1/2 1/2\ne 0 1 0\nf 0 1\n")

    @pytest.mark.parametrize("support", ["2 1 0", "2 0 0"], ids=["unsorted", "duplicate"])
    def test_bad_support_names_its_line(self, support):
        text = f"vars 2\nv 0 2 1/2 1/2\nv 1 2 1/2 1/2\ne 0 {support}\nf 0 0\ne 1 1 0\n"
        with pytest.raises(ParseError, match="line 4: event 0: support must be sorted"):
            parse_instance(text)


# Instances every door rejects itself, with the messages parse_instance
# reports on the record at fault.
THIRDS = VarSpec(0, 3, (F(1, 3), F(1, 3), F(1, 3)))
INCONSISTENT = {
    "value-out-of-range": (
        [fair_bit(0)], [Event(0, (0,), [(5,)])], "event 0: value 5 out of range for variable 0"
    ),
    "negative-value": (
        [fair_bit(0)], [Event(0, (0,), [(-1,)])], "event 0: value -1 out of range for variable 0"
    ),
    "value-equals-range": (
        [fair_bit(0)], [Event(0, (0,), [(2,)])], "event 0: value 2 out of range for variable 0"
    ),
    # the row set is fine for the ternary variable and out of range for the
    # bit: each event sharing it is judged on its own variables
    "shared-row-set": (
        [THIRDS, fair_bit(1)], [Event(0, (0,), [(2,)]), Event(1, (1,), [(2,)])],
        "event 1: value 2 out of range for variable 1",
    ),
    "no-varspec": (
        [fair_bit(0)], [Event(0, (0, 7), [(0, 0)])],
        "event 0 references variable 7 with no specification",
    ),
    "duplicate-varspec": (
        [fair_bit(0), fair_bit(0)], [Event(0, (0,), [(0,)])],
        "duplicate specification for variable 0",
    ),
    "duplicate-event-ids": (
        [fair_bit(0), fair_bit(1)], [Event(0, (0,), [(0,)]), Event(0, (1,), [(0,)])],
        "event ids must be distinct",
    ),
}
DOORS = {
    "event_probability": lambda events, variables: [
        event_probability(e, variables) for e in events
    ],
    "check_condition": lambda events, variables: check_condition(
        events, variables, [F(1, 4)] * len(events), F(1)
    ),
    "solve_moser_tardos": lambda events, variables: solve_moser_tardos(
        events, variables, seed=0
    ),
}


@pytest.mark.parametrize(
    "door, case",
    [
        (door, case)
        for door in DOORS
        for case in INCONSISTENT
        # event_probability takes one event, so it has no ids to compare
        if (door, case) != ("event_probability", "duplicate-event-ids")
    ],
)
def test_door_rejects_inconsistent_instance(door, case):
    variables, events, message = INCONSISTENT[case]
    with pytest.raises(InvalidInstanceError, match=message):
        DOORS[door](events, variables)


def test_default_budget_grows():
    assert default_budget(0) == 1
    assert default_budget(1) == 2000
    assert default_budget(100) < default_budget(1000)


def test_varspec_validation():
    with pytest.raises(InvalidInstanceError):
        VarSpec(0, 2, (F(1, 2), F(1, 3)))
    with pytest.raises(InvalidInstanceError):
        VarSpec(0, 0, ())
    with pytest.raises(InvalidInstanceError):
        VarSpec(0, 2, (F(3, 2), F(-1, 2)))


def test_event_validation():
    with pytest.raises(InvalidInstanceError):
        Event(0, (), [()])
    with pytest.raises(InvalidInstanceError):
        Event(0, (1, 0), [(0, 0)])
    with pytest.raises(InvalidInstanceError):
        Event(0, (0, 1), [(0,)])
    # a non-integral value is refused, not truncated
    with pytest.raises(InvalidInstanceError, match="event 0: values must be integers"):
        Event(0, (0,), [(0.7,)])
