"""Acceptance suite: one test per criterion, each printing a pass line with
its elapsed time (run with ``pytest tests/test_acceptance.py -v -s``).

Every expected value here is either computed by an independent oracle in
this file (exhaustive enumeration, direct bit scans) or checked in exact
rational arithmetic.
"""

import math
import time
from fractions import Fraction

import pytest

from lllcolor.cli import CERT_FIXTURE, main
from lllcolor.colorer import color_prefix
from lllcolor.hindman import (
    baseline_coloring,
    build_image_stream,
    build_translate_stream,
    builtin_addition_like,
    choose_M,
    gen_family,
    pigeonhole_check,
)
from lllcolor.lll import (
    ConditionRefusal,
    Event,
    LLLCertificate,
    check_condition,
    fair_bit,
    parse_instance,
    solve_moser_tardos,
    verify_assignment,
)
from lllcolor.rng import derive_seed, u64
from lllcolor.streams import gen_sets_stream, point_bound, validate_sparsity
from lllcolor.verify import audit_solution, monte_carlo_homogeneity

F = Fraction


def report(criterion, detail, elapsed):
    print(f"PASS criterion {criterion}: {detail} ({elapsed:.2f}s)")


# --------------------------------------------------------------------------
# 1. Exact certification on the three-event fixture


def test_criterion_1_certification():
    start = time.perf_counter()
    variables, events = parse_instance(CERT_FIXTURE)
    r = [F(1, 3)] * 3

    accept = check_condition(events, variables, r, F(1))
    assert isinstance(accept, LLLCertificate)
    assert F(4, 27) >= F(1, 8)
    assert accept.margins == (F(1, 8) - F(4, 27),) * 3

    refuse = check_condition(events, variables, r, F(3, 4))
    assert isinstance(refuse, ConditionRefusal)
    assert refuse.first_violation == 0
    assert F(3, 4) * F(4, 27) == F(1, 9) < F(1, 8)
    assert refuse.margins[0] == F(1, 72)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, "q=1 accepts at bound 4/27, q=3/4 refuses at bound 1/9", elapsed)


# --------------------------------------------------------------------------
# 2. Resampler vs exhaustive search on 200 random instances


def _cube_masks(nv):
    total = 1 << nv
    ones = {}
    for v in range(nv):
        block = (1 << (1 << v)) - 1
        stride = 1 << (v + 1)
        mult = ((1 << total) - 1) // ((1 << stride) - 1)
        ones[v] = (block << (1 << v)) * mult
    return ones


def _oracle_avoiding(nv, events, masks):
    """Exhaustive oracle: one bit per assignment of the full cube."""
    total = 1 << nv
    full = (1 << total) - 1
    bad = 0
    for e in events:
        for row in e.forbidden:
            m = full
            for pos, v in enumerate(e.vbl):
                m &= masks[v] if row[pos] else ~masks[v]
            bad |= m
    good = ~bad & full
    if good == 0:
        return None
    a = (good & -good).bit_length() - 1
    return {v: (a >> v) & 1 for v in range(nv)}


def _random_instance(seed):
    nv = 10 + u64(seed, 1) % 11
    ne = 10 + u64(seed, 2) % 21
    events = []
    for e in range(ne):
        k = 3 + u64(seed, 3, e) % 3
        sup = tuple(sorted({u64(seed, 4, e, t) % nv for t in range(k)}))
        row = tuple(u64(seed, 5, e, p) % 2 for p in range(len(sup)))
        events.append(Event(e, sup, (row,)))
    return nv, events


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    masks_by_nv = {}
    kept = 0
    seed = 0
    while kept < 200:
        nv, events = _random_instance(seed)
        seed += 1
        if nv not in masks_by_nv:
            masks_by_nv[nv] = _cube_masks(nv)
        witness = _oracle_avoiding(nv, events, masks_by_nv[nv])
        if witness is None:
            continue
        kept += 1
        assignment = solve_moser_tardos(events, [fair_bit(v) for v in range(nv)], seed)
        assert verify_assignment(assignment, events) == []
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(2, f"200 oracle-satisfiable instances solved ({seed - 200} skipped)", elapsed)


# --------------------------------------------------------------------------
# 3 & 4. Twenty generated streams: full satisfaction and prefix stability

STREAM_SEEDS = range(20)


@pytest.fixture(scope="module")
def generated_runs():
    runs = {}
    for s in STREAM_SEEDS:
        stream = gen_sets_stream(s, 200, 4096, 16)
        assert validate_sparsity(stream, 2**14).ok
        colorings = {}
        for horizon in (2**10, 2**12, 2**14):
            t0 = time.perf_counter()
            colorings[horizon] = color_prefix(stream, horizon, 5000 + s)
            assert time.perf_counter() - t0 < 30.0
        runs[s] = (stream, colorings)
    return runs


def test_criterion_3_generated_streams(generated_runs):
    start = time.perf_counter()
    checked = 0
    for s, (stream, colorings) in generated_runs.items():
        coloring = colorings[2**14]
        for j in range(len(stream)):
            dom = stream.dom(j)
            if dom[-1] < coloring.committed_len:
                assert len({coloring.bits[n] for n in dom}) == 2, (s, j)
                checked += 1
    elapsed = time.perf_counter() - start
    report(3, f"{checked} enumerated sets dichromatic across 20 streams, "
              "zero construction failures", elapsed)


def test_criterion_4_prefix_stability(generated_runs):
    start = time.perf_counter()
    for s, (_stream, colorings) in generated_runs.items():
        lo = colorings[2**10]
        mid = colorings[2**12]
        hi = colorings[2**14]
        assert hi.bits[: mid.committed_len] == mid.bits
        assert hi.bits[: lo.committed_len] == lo.bits
    elapsed = time.perf_counter() - start
    report(4, "committed bits at horizon 2^10 are an exact prefix of 2^14", elapsed)


# --------------------------------------------------------------------------
# 5. Translate pipeline at full desk scale


def test_criterion_5_translate_pipeline():
    start = time.perf_counter()
    M = choose_M(1, F(1, 2), "comp")
    assert M == 4
    members, stages, horizon = 50, 512, 2**14
    fn = builtin_addition_like("sum")
    sizes = tuple(M + i + 8 for i in range(members))
    family = gen_family(derive_seed(7, 1), members, stages, "ce", sizes)
    stream = build_translate_stream(family, M)
    assert validate_sparsity(stream, horizon).ok
    coloring = color_prefix(stream, horizon, derive_seed(7, 2))
    audit = audit_solution(coloring, family, fn, stream=stream)
    assert audit.violations_total == 0
    assert audit.translates_checked > 10000
    assert all(v.stabilized for v in audit.members)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(5, f"50-member translate audit: {audit.translates_checked} translates, "
              "0 homogeneous", elapsed)


# --------------------------------------------------------------------------
# 6. Image pipeline for both pair functions


@pytest.mark.parametrize("fname,expected_M", [("sum", 16), ("absdiff", 19)])
def test_criterion_6_image_pipeline(fname, expected_M):
    start = time.perf_counter()
    fn = builtin_addition_like(fname)
    M = choose_M(fn.mult_bound, F(1, 2), "main")
    assert M == expected_M
    members, stages, horizon = 30, 512, 2**14
    sizes = tuple(fn.mult_bound * (M + i) + 8 for i in range(members))
    family = gen_family(derive_seed(11, 1), members, stages, "sigma2", sizes,
                        max_mind_changes=3)
    stream = build_image_stream(family, fn, M)
    rep = validate_sparsity(stream, horizon)
    assert rep.ok
    for m, arr in rep.counts.items():
        peak = max(arr)
        assert peak <= fn.mult_bound * m * m
        assert peak <= point_bound(F(1, 2), m)
    coloring = color_prefix(stream, horizon, derive_seed(11, 2))
    audit = audit_solution(coloring, family, fn, stream=stream)
    assert audit.violations_total == 0
    stabilized = [v for v in audit.members if v.stabilized]
    assert len(stabilized) == members
    assert all(v.translates_checked > 0 for v in stabilized)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(6, f"{fname}: M={M}, {audit.translates_checked} image translates "
              "audited, counts within b*m^2 and 2^(m/2)", elapsed)


# --------------------------------------------------------------------------
# 7. Warm-up reproductions


def test_criterion_7_warmups():
    start = time.perf_counter()
    ph = pigeonhole_check(12)
    assert ph.forced_triple_holds
    assert "0110" in ph.naive_counterexamples

    for a, b, announce in ((1, 3, 0), (2, 7, 3), (0, 5, 10)):
        horizon = 160
        bits = baseline_coloring(a, b, announce, horizon)
        d = b - a
        for s in range(announce + d, horizon - b):
            assert bits[a + s] != bits[b + s]

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(7, "pigeonhole forced for all s<=12; recurrence coloring splits "
              "every audited translate", elapsed)


# --------------------------------------------------------------------------
# 8. Monte Carlo probability sanity


def test_criterion_8_monte_carlo():
    start = time.perf_counter()
    p = 2.0 ** -7
    sigma = math.sqrt(p * (1 - p) / 100000)
    for seed in range(1, 6):
        estimate = float(monte_carlo_homogeneity(8, 100000, seed))
        assert abs(estimate - p) <= 3 * sigma, (seed, estimate)
    elapsed = time.perf_counter() - start
    report(8, "five seeds within 3 sigma of 2^-7 at 10^5 trials", elapsed)


# --------------------------------------------------------------------------
# 9. Byte-identical artifact trees


def test_criterion_9_determinism(tmp_path):
    start = time.perf_counter()
    configs = [
        ["run", "--mode", "comp", "--f", "sum", "--seed", "7",
         "--horizon", "2048", "--members", "12"],
        ["run", "--mode", "main", "--f", "absdiff", "--seed", "9",
         "--horizon", "2048", "--members", "4"],
    ]
    for idx, base in enumerate(configs):
        first = tmp_path / f"first{idx}"
        second = tmp_path / f"second{idx}"
        assert main(base + ["--out", str(first)]) == 0
        assert main(base + ["--out", str(second)]) == 0
        names = {p.name for p in first.iterdir()}
        assert names == {p.name for p in second.iterdir()}
        for name in sorted(names):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
    elapsed = time.perf_counter() - start
    report(9, "two cmd_run executions per config are byte-identical", elapsed)
