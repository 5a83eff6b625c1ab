"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`."""

import random
import time

from kwise import (
    ConstructionParams,
    Family,
    Universe,
    build_family,
    cube_blocks,
    expected_size,
    greedy_saturate,
    is_maximal_kwise,
    oracle_min_size,
    verify_witness,
)
from kwise.search import enumerate_downsets
from kwise.setcore import _cover_levels, _low_words
from oracles import (
    brute_first_unsaturated,
    brute_kwise_ok,
    closure,
    maximal_arity_range,
    naive_min_cover,
    superset_min,
)


def _report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}: {name}{' [' + detail + ']' if detail else ''}")
    assert ok, name


def _divisible_cells(k, n_max=24):
    return [n for n in range(2 * (k - 1), n_max + 1) if n % (k - 1) == 0]


def test_criterion_size_formula():
    """Construction size equals the closed form on every cell."""
    t0 = time.time()
    failures = []
    for k in (3, 4, 5, 6):
        for n in range(2 * (k - 1), 25):
            p = ConstructionParams(k, n)
            if len(build_family(p).f) != expected_size(p):
                failures.append((k, n))
    spot = {
        (3, 8): 29,
        (4, 6): 10,
        (4, 9): 34,
        (5, 8): 19,
        (3, 5): 9,
        (4, 7): 18,
    }
    for (k, n), want in spot.items():
        if expected_size(ConstructionParams(k, n)) != want:
            failures.append(("spot", k, n))
    elapsed = time.time() - t0
    _report(
        "size formula exact on every cell, k in 3..6, n <= 24",
        not failures and elapsed < 1.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_construction_maximal_both_backends():
    """The construction verifies as maximal, and the cover numbers behind
    maximal_arity_range, which never run the verifier's search, agree."""
    cells = []
    for k in (3, 4, 5):
        cells += [(k, n) for n in range(2 * (k - 1), 17)]
    cells += [(6, n) for n in range(10, 16)]
    failures = []
    worst = 0.0
    for k, n in cells:
        built = build_family(ConstructionParams(k, n))
        t0 = time.time()
        v = is_maximal_kwise(built.f, k, "complement")
        cell_time = time.time() - t0
        worst = max(worst, cell_time)
        lo, hi = maximal_arity_range(built.f)
        if not (v.ok and lo <= k < hi) or cell_time >= 120.0:
            failures.append((k, n, v.ok, lo, hi, round(cell_time, 1)))
    _report(
        "construction maximal for k in 3..5 (n <= 16) and k=6 (n <= 15), cover numbers agree",
        not failures,
        f"{len(cells)} cells, worst {worst:.2f}s",
    )


def test_criterion_tiny_scale_equivalence():
    """On every down-set with n <= 4 the verifier matches a definition
    literal brute-force oracle for k in 2..4."""
    disagreements = 0
    families = 0
    for n in (1, 2, 3, 4):
        for g in enumerate_downsets(Universe(n)):
            families += 1
            for k in (2, 3, 4):
                kwise_want = brute_kwise_ok(g.members, n, k)
                unsat_want = brute_first_unsaturated(g.members, n, k)
                v = is_maximal_kwise(g, k, "complement")
                want_ok = kwise_want and unsat_want is None
                if v.ok != want_ok:
                    disagreements += 1
                elif not v.ok and not verify_witness(v, g, k):
                    disagreements += 1
    _report(
        "verifier equals the brute-force oracle on all down-sets, n <= 4, k in 2..4",
        disagreements == 0,
        f"{families} down-sets x 3 arities, {disagreements} disagreements",
    )


def test_criterion_oracle_sanity():
    """f_2(n) = 2^(n-1) exactly; f_3(4) <= 5 with the construction among the
    verified maximal families."""
    ok = True
    for n in (2, 3, 4, 5):
        if oracle_min_size(2, Universe(n)).f_k_n != 1 << (n - 1):
            ok = False
    res34 = oracle_min_size(3, Universe(4))
    built = build_family(ConstructionParams(3, 4))
    construction_seen = any(
        g == built.f
        for g in enumerate_downsets(Universe(4))
        if is_maximal_kwise(g, 3, "complement").ok
    )
    ok = ok and res34.f_k_n <= 5 and construction_seen
    ok = ok and is_maximal_kwise(res34.sample_extremal, 3, "direct").ok
    _report(
        "oracle: f_2(n) = 2^(n-1) for n in 2..5; f_3(4) <= 5 with the construction verified",
        ok,
        f"f_3(4)={res34.f_k_n}, achievers={res34.extremal_count}",
    )


def test_criterion_growth_doubling():
    """For the three largest divisible n, consecutive construction sizes
    satisfy the exact doubling identity size + D = C * 2^(n/(k-1))."""
    ok = True
    for k in (3, 4, 5):
        cells = _divisible_cells(k)[-3:]
        c_k = (k - 1) * (1 << k) // 8  # (k-1) * 2^(k-3)
        d_k = ((1 << (k - 1)) - 1) * (k - 2)
        sizes = [len(build_family(ConstructionParams(k, n)).f) for n in cells]
        for n, s in zip(cells, sizes):
            if s + d_k != c_k * (1 << (n // (k - 1))):
                ok = False
        for (n1, s1), (n2, s2) in zip(zip(cells, sizes), zip(cells[1:], sizes[1:])):
            if n2 - n1 == k - 1 and (s2 + d_k) != 2 * (s1 + d_k):
                ok = False
    _report("growth: exact doubling of size + constant across divisible n", ok)


def test_criterion_greedy_independence():
    """Fifty seeded greedy runs at (3, 10) and (4, 9) all verify maximal."""
    failures = []
    for k, n in ((3, 10), (4, 9)):
        empty = Family(Universe(n))
        for seed in range(50):
            fam = greedy_saturate(empty, k, seed)
            if not is_maximal_kwise(fam, k, "complement").ok:
                failures.append((k, n, seed))
    _report(
        "greedy saturation: 50 seeds at (3,10) and (4,9) all verify maximal",
        not failures,
        f"failures={failures}" if failures else "100 runs",
    )


def test_criterion_cover_dp_matches_naive():
    """The covering numbers read off the cover levels (the least t whose
    level holds the mask, 255 for none) equal the superset-min of naive
    tuple enumeration on 50 random down-sets, every lattice entry."""
    rng = random.Random(2024)
    mismatches = 0
    for trial in range(50):
        n = rng.randint(4, 10)
        u = Universe(n)
        seeds = [rng.randrange(1 << n) for _ in range(rng.randint(1, 12))]
        f = closure(Family(u, seeds))
        j_max = rng.randint(1, 4)
        levels = _cover_levels(f, j_max, tuple(_low_words(n)))
        numbers = bytes(
            next((t for t, level in enumerate(levels) if level >> m & 1), 255)
            for m in range(1 << n)
        )
        naive = superset_min(naive_min_cover(f.members, n, j_max))
        if numbers != naive.tobytes():
            mismatches += 1
    _report(
        "cover-level covering numbers equal naive tuple enumeration on 50 random down-sets",
        mismatches == 0,
        f"{mismatches} mismatching down-sets",
    )


def test_criterion_construction_cube_families():
    """At k=3 the construction is the cube family of its blocks of size at
    least 3: of none at n = 4 and of {1,2,3} at n = 5 (test_construction
    checks n = 6..30, where that is every block); at n = 2(k-1), where
    every block has 2 elements, it is the cube family of the k-1 specials;
    at k in 4..5 and every larger n up to 20 it is no cube family."""
    wrong = []
    for n, want in ((4, ()), (5, (0b111,))):
        if cube_blocks(build_family(ConstructionParams(3, n)).f) != want:
            wrong.append((3, n))
    for k in range(4, 9):
        built = build_family(ConstructionParams(k, 2 * (k - 1)))
        if cube_blocks(built.f) != (sum(b & -b for b in built.blocks),):
            wrong.append((k, 2 * (k - 1)))
    for k in (4, 5):
        for n in range(2 * (k - 1) + 1, 21):
            if cube_blocks(build_family(ConstructionParams(k, n)).f) is not None:
                wrong.append((k, n))
    _report(
        "cube families: the k=3 construction at n in 4..5, and the specials' cube at n=2(k-1) "
        "for k in 4..8; none at k in 4..5 above 2(k-1) up to n=20",
        not wrong,
        f"wrong cells={wrong}" if wrong else "",
    )
