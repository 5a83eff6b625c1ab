import random

import numpy as np
import pytest
from hypothesis import given

from kwise import (
    ConstructionParams,
    CoverSearcher,
    CoverWitness,
    Family,
    GapWitness,
    Universe,
    Verdict,
    build_family,
    check_kwise,
    check_saturated,
    complement_family,
    is_maximal_kwise,
    maximal_elements,
    verify_witness,
)
from kwise import verifier
from kwise.setcore import is_downset
from oracles import (
    brute_first_unsaturated,
    brute_kwise_ok,
    closure,
    completable,
    families,
    fold_subsets,
    fold_supersets,
    make_star,
    maximal_arity_range,
    moebius_mod,
    random_family,
)


# --- check_kwise -------------------------------------------------------------


def test_kwise_complement_star_passes():
    g = complement_family(make_star(Universe(8)))
    assert check_kwise(g, 5).ok  # every member misses element 1


def test_kwise_full_set_member_fails():
    u = Universe(5)
    g = Family(u, [u.full, 3])
    for k in (2, 3, 7):
        v = check_kwise(g, k)
        assert not v.ok and v.reason == "not_kwise"
        assert isinstance(v.witness, CoverWitness)
        assert verify_witness(v, g, k)


def test_kwise_construction_k4_n9():
    f = build_family(ConstructionParams(4, 9)).f
    assert check_kwise(f, 4).ok


def test_kwise_empty_family_vacuous():
    assert check_kwise(Family(Universe(4)), 3).ok


def test_kwise_backends_equal_on_failures():
    u = Universe(4)
    g = Family(u, [0b0011, 0b1100, 0b0101])
    assert not brute_kwise_ok(g.members, 4, 2)
    v = check_kwise(g, 2)
    assert not v.ok and verify_witness(v, g, 2)


def test_kwise_requires_k_at_least_2():
    with pytest.raises(ValueError):
        check_kwise(Family(Universe(3), [1]), 1)
    with pytest.raises(ValueError, match="^arity k must be >= 2, got 0$"):
        check_kwise(Family(Universe(3), [1]), 0)


def test_kwise_monotone_in_k():
    rng = random.Random(9)
    seen_failure = False
    for _ in range(60):
        g = random_family(rng, 6)
        for k in (2, 3):
            if not check_kwise(g, k).ok:
                seen_failure = True
                assert not check_kwise(g, k + 1).ok
                assert not check_kwise(g, k + 3).ok
    assert seen_failure


# --- check_saturated ---------------------------------------------------------


def test_saturated_complement_star():
    for k in (2, 3, 5):
        g = complement_family(make_star(Universe(7)))
        assert check_saturated(g, k).ok


def test_saturated_construction_k3_n8():
    f = build_family(ConstructionParams(3, 8)).f
    assert check_saturated(f, 3).ok


def test_saturated_empty_family_fails_at_empty_mask():
    v = check_saturated(Family(Universe(4)), 3)
    assert not v.ok and v.witness == GapWitness(0)


def test_saturated_fails_on_singleton_empty_set():
    u = Universe(3)
    g = Family(u, [0])
    v = check_saturated(g, 3)
    assert not v.ok and v.reason == "not_saturated"
    assert isinstance(v.witness, GapWitness)
    assert verify_witness(v, g, 3)


def test_deletion_matches_naive_recheck():
    built = build_family(ConstructionParams(4, 9))
    tops = maximal_elements(built.f).members
    for removed in tops[:3]:
        g = Family(built.f.universe, set(built.f.members) - {removed})
        v = check_saturated(g, 4)
        want = brute_first_unsaturated(g.members, 9, 4)
        assert v.ok == (want is None)
        if want is not None:
            assert v.witness == GapWitness(want)
            assert verify_witness(v, g, 4)


def test_saturated_rejects_large_universe():
    with pytest.raises(ValueError):
        check_saturated(Family(Universe(25), [1]), 3)


def _border_by_definition(members, n):
    memberset = set(members)
    return [
        x
        for x in range(1 << n)
        if x not in memberset and all(x ^ (1 << b) in memberset for b in range(n) if x >> b & 1)
    ]


def test_border_matches_definition():
    rng = random.Random(41)
    cases = []
    for n in range(1, 9):
        u = Universe(n)
        cases += [Family(u), Family(u, range(u.num_masks))]
        for _ in range(6):
            f = random_family(rng, n, max_members=3 * n)
            cases += [f, closure(f)]
    for g in cases:
        border, downset = verifier._border(g)
        assert border == _border_by_definition(g.members, g.universe.n), g
        assert downset == is_downset(g), g
    assert verifier._border(Family(Universe(5))) == ([0], True)
    assert verifier._border(Family(Universe(5), range(32))) == ([], True)
    assert verifier._border(Family(Universe(5), [1, 3])) == ([0], False)


def test_saturation_budget_capped_at_n(monkeypatch):
    # a cover never needs more than n members: with a huge k the saturation
    # scan must ask the search for no more than n and decide exactly as
    # k = n + 1 does
    budgets = []
    find = CoverSearcher.find

    def recording(self, target, budget):
        budgets.append(budget)
        return find(self, target, budget)

    u = Universe(10)
    star = make_star(u)
    cases = [star, Family(u, star.members[1:]), Family(u, star.members[:-1]), Family(u, [1, 2])]
    with monkeypatch.context() as m:
        m.setattr(CoverSearcher, "find", recording)
        huge = [check_saturated(f, 10**6) for f in cases]
    assert huge == [check_saturated(f, u.n + 1) for f in cases]
    assert budgets and max(budgets) <= u.n
    for f in cases:
        assert is_maximal_kwise(f, 10**6) == is_maximal_kwise(f, u.n + 1)


# --- is_maximal_kwise --------------------------------------------------------


def test_star_is_maximal_direct_world():
    v = is_maximal_kwise(make_star(Universe(10)), 4, "direct")
    assert v.ok and v.complement_downset


def test_construction_maximal_at_smallest_n():
    for k in (3, 4, 5):
        built = build_family(ConstructionParams(k, 2 * (k - 1)))
        v = is_maximal_kwise(complement_family(built.f), k, "direct")
        assert v.ok and v.complement_downset


def test_full_powerset_fails_k2():
    u = Universe(4)
    f = Family(u, range(u.num_masks))
    v = is_maximal_kwise(f, 2, "direct")
    assert not v.ok and v.reason == "not_kwise"
    assert verify_witness(v, complement_family(f), 2)


def test_world_validation():
    with pytest.raises(ValueError):
        is_maximal_kwise(Family(Universe(3)), 2, "sideways")


def test_construction_passes_both_checks_up_to_n20():
    # the acceptance suite covers n <= 16; this sweeps the rest of the
    # table-feasible band
    for k in (3, 4, 5, 6):
        for n in range(17, 21):
            built = build_family(ConstructionParams(k, n))
            v = is_maximal_kwise(built.f, k, "complement")
            assert v.ok, (k, n)


@given(families(max_n=7))
def test_duality_of_worlds(f):
    direct = is_maximal_kwise(f, 3, "direct")
    through_complement = is_maximal_kwise(complement_family(f), 3, "complement")
    assert direct == through_complement


def _check_against_cover_numbers(g, k):
    """The verdict agrees with maximal_arity_range, which reads cover numbers
    and never runs the search, and a failure's witness re-verifies."""
    lo, hi = maximal_arity_range(g)
    v = is_maximal_kwise(g, k, "complement")
    assert v.ok == (lo <= k < hi), (g, k, v)
    assert v.ok or verify_witness(v, g, k)
    return v


def test_backends_agree_on_random_downsets():
    rng = random.Random(21)
    for _ in range(25):
        g = closure(random_family(rng, rng.randint(3, 8)))
        for k in (2, 3, 4):
            _check_against_cover_numbers(g, k)


def test_backends_agree_on_construction_n16_and_mutants():
    rng = random.Random(16)
    failures = 0
    for k in (3, 4, 5):
        g = build_family(ConstructionParams(k, 16)).f
        tops = maximal_elements(g).members
        inner = [m for m in sorted(set(g.members) - set(tops)) if 0 < m.bit_count() < 8]
        no_top = Family(g.universe, set(g.members) - {rng.choice(tops)})
        holed = Family(g.universe, set(g.members) - {rng.choice(inner)})
        assert not is_downset(holed)
        assert _check_against_cover_numbers(g, k).ok
        for case in (no_top, holed):
            if not _check_against_cover_numbers(case, k).ok:
                failures += 1
    assert failures >= 3


def test_tuples_matches_brute_force_at_k4():
    rng = random.Random(78)
    failures = 0
    for _ in range(40):
        n = rng.randint(2, 6)
        g = random_family(rng, n)
        if not brute_kwise_ok(g.members, n, 4):
            continue
        want_first = brute_first_unsaturated(g.members, n, 4)
        v = check_saturated(g, 4)
        assert v.ok == (want_first is None), (g.members, n)
        if want_first is not None:
            failures += 1
            assert v.witness == GapWitness(want_first)
    assert failures > 5


def test_matches_brute_force_on_arbitrary_families():
    # not restricted to down-sets: exercises the superset-relaxed cover
    # queries that the general definition requires
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(2, 6)
        g = random_family(rng, n)
        for k in (2, 3):
            want_kwise = brute_kwise_ok(g.members, n, k)
            assert check_kwise(g, k).ok == want_kwise
            if not want_kwise:
                continue
            want_first = brute_first_unsaturated(g.members, n, k)
            v = check_saturated(g, k)
            assert v.ok == (want_first is None), (g.members, n, k)
            if want_first is not None:
                assert v.witness == GapWitness(want_first)
                assert verify_witness(v, g, k)


def test_every_failure_witness_verifies():
    rng = random.Random(33)
    checked = 0
    for _ in range(80):
        g = random_family(rng, rng.randint(2, 7))
        for k in (2, 3):
            v = is_maximal_kwise(g, k, "complement")
            if not v.ok:
                checked += 1
                assert verify_witness(v, g, k), (g.members, k, v)
    assert checked > 20


def _exactness_cases():
    """Seeded random families and one-step mutants of the construction,
    n <= 8, k in 2..5."""
    rng = random.Random(5)
    for _ in range(40):
        yield random_family(rng, rng.randint(2, 8), 10), rng.randint(2, 5)
    for k, n in ((3, 4), (3, 6), (3, 8), (4, 6), (4, 7), (5, 8)):
        g = build_family(ConstructionParams(k, n)).f
        yield g, k
        for removed in maximal_elements(g).members:
            yield Family(g.universe, set(g.members) - {removed}), k
        added = rng.choice([m for m in range(g.universe.num_masks) if m not in g])
        yield Family(g.universe, (*g.members, added)), k


def _cover_residues(g, j, p):
    """For every mask T, the number of j-tuples of members of g's
    down-closure whose union is exactly T, modulo p: zero wherever no cover
    exists, and also wherever the count is a multiple of p."""
    down = np.zeros(g.universe.num_masks, dtype=bool)
    down[list(g.members)] = True
    zeta = fold_subsets(fold_supersets(down, np.logical_or).astype(np.int64), np.add)
    return moebius_mod(zeta**j % p, p)


@pytest.mark.parametrize("prime", [2, 3])
def test_verdicts_exact_under_tiny_prime(prime):
    # modulo a tiny prime, nonzero cover counts vanish often; the case set
    # must hold such false vanishes, and the verdicts, which rest on no
    # modular count, must stay exact on them
    false_vanishes = 0
    for g, k in _exactness_cases():
        n, full = g.universe.n, g.universe.full
        v = is_maximal_kwise(g, k, "complement")
        if not brute_kwise_ok(g.members, n, k):
            assert v.reason == "not_kwise" and verify_witness(v, g, k)
            continue
        first = brute_first_unsaturated(g.members, n, k)
        assert v.ok == (first is None), (g.members, k)
        assert v.witness == (None if first is None else GapWitness(first))
        stop = g.universe.num_masks if first is None else first
        if g.members:
            residues = _cover_residues(g, k - 1, prime)
            false_vanishes += sum(
                1
                for x in range(stop)
                if x not in g and residues[full ^ x] == 0 and completable(g.members, x, n, k)
            )
    assert false_vanishes > 0


# --- verify_witness ----------------------------------------------------------


def test_verify_witness_cover_direct_arithmetic():
    u = Universe(4)
    g = Family(u, [0b0011, 0b1100])
    ok = Verdict(False, CoverWitness((0b0011, 0b1100)), "not_kwise")
    assert verify_witness(ok, g, 2)
    short = Verdict(False, CoverWitness((0b0011,)), "not_kwise")
    assert not verify_witness(short, g, 2)


@pytest.mark.parametrize("masks", [(), (0b0011, 0b0110, 0b1100)], ids=["empty", "k+1"])
def test_verify_witness_cover_size_out_of_range(masks):
    # a cover at k has 1..k members: none, or k + 1 members whose union is
    # the full set, is no cover at k
    g = Family(Universe(4), [0b0011, 0b0110, 0b1100])
    assert not verify_witness(Verdict(False, CoverWitness(masks), "not_kwise"), g, 2)


def test_verify_witness_gap_member_fails():
    u = Universe(4)
    g = Family(u, [0b0011, 0b1100])
    w = Verdict(False, GapWitness(0b0011), "not_saturated")
    assert not verify_witness(w, g, 3)  # the gap mask must not be a member


def test_verify_witness_gap_matches_brute_completion():
    # a non-member is a true gap iff no <= k - 1 members complete it to the
    # full set; verify_witness reads this from the cover levels
    rng = random.Random(31)
    verdicts = set()
    for _ in range(300):
        n = rng.randint(1, 7)
        g = random_family(rng, n, 10)
        k = rng.randint(2, n + 2)
        for x in rng.sample(range(1 << n), min(6, 1 << n)):
            if x in g:
                continue
            want = not completable(list(g.members), x, n, k)
            v = Verdict(False, GapWitness(x), "not_saturated")
            assert verify_witness(v, g, k) == want, (g.members, x, k)
            verdicts.add(want)
    assert verdicts == {True, False}


def test_verify_witness_gap_rejects_large_universe():
    v = Verdict(False, GapWitness(2), "not_saturated")
    with pytest.raises(ValueError, match="2\\^n table limit"):
        verify_witness(v, Family(Universe(25), [1]), 3)


def test_verify_witness_detects_corruption():
    u = Universe(4)
    g = Family(u, [0b0011, 0b1100])
    v = check_kwise(g, 2)
    assert not v.ok and verify_witness(v, g, 2)
    masks = v.witness.masks
    corrupted = Verdict(False, CoverWitness((masks[0] & ~1, *masks[1:])), "not_kwise")
    assert not verify_witness(corrupted, g, 2)


def test_verify_witness_requires_witness():
    with pytest.raises(ValueError):
        verify_witness(Verdict(True), Family(Universe(3)), 2)


def test_verify_witness_rejects_foreign_masks():
    u = Universe(3)
    g = Family(u, [1])
    with pytest.raises(ValueError):
        verify_witness(Verdict(False, CoverWitness((1 << 10,))), g, 2)


@pytest.mark.parametrize("k", [1, 0, -1])
@pytest.mark.parametrize(
    "witness", [CoverWitness((0b001, 0b010, 0b100)), GapWitness(0b011)], ids=["cover", "gap"]
)
def test_verify_witness_rejects_arity_below_two(k, witness):
    # the arity check and message of check_kwise
    g = Family(Universe(3), [0, 0b001, 0b010, 0b100])
    v = Verdict(False, witness, "not_saturated")
    with pytest.raises(ValueError, match=f"^arity k must be >= 2, got {k}$"):
        verify_witness(v, g, k)
