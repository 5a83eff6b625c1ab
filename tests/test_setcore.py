import random

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from kwise import (
    CoverSearcher,
    Family,
    Universe,
    complement_family,
    elements_of,
    maximal_elements,
    submasks,
)
from kwise.setcore import (
    ALGEBRA_MAX_N,
    _word_bits,
    build_cover_table,
    cover_table_from_indicator,
    is_downset,
)
from oracles import (
    closure,
    families,
    fold_subsets,
    fold_supersets,
    make_star,
    mask_of,
    moebius_mod,
    naive_is_downset,
    naive_maximal_elements,
    naive_min_cover,
    random_family,
    superset_min,
)


def fam(u, *sets):
    return Family(u, [mask_of(s, u) for s in sets])


def random_downset(rng, n, seeds=10):
    return closure(random_family(rng, n, seeds))


@st.composite
def wide_families(draw):
    """Families over n in 1..62 whose masks often set bit n - 1: random
    families (rarely down-sets), and down-set closures of a few narrow
    masks, as they are, less one member or plus one mask."""
    n = draw(st.integers(1, ALGEBRA_MAX_N))
    u = Universe(n)
    masks = st.integers(0, u.full) | st.integers(1 << (n - 1), u.full)
    kind = draw(st.sampled_from(("random", "closure", "closure-minus", "closure-plus")))
    if kind == "random":
        return Family(u, draw(st.frozensets(masks, max_size=12)))
    narrow = st.frozensets(st.integers(0, n - 1), max_size=5).map(
        lambda bits: sum(1 << b for b in bits)
    )
    members = {s for m in draw(st.lists(narrow, max_size=4)) for s in submasks(m)}
    if kind == "closure-minus" and members:
        members.discard(draw(st.sampled_from(sorted(members))))
    elif kind == "closure-plus":
        members.add(draw(masks))
    return Family(u, members)


# --- Universe and masks ---------------------------------------------------


def test_universe_bounds():
    assert Universe(1).full == 1
    assert Universe(62).full == (1 << 62) - 1
    with pytest.raises(ValueError):
        Universe(0)
    with pytest.raises(ValueError):
        Universe(63)


def test_check_mask():
    u = Universe(3)
    assert u.check_mask(0b101) == 0b101
    with pytest.raises(ValueError):
        u.check_mask(0b1000)
    with pytest.raises(ValueError):
        u.check_mask(-1)


def test_mask_roundtrip():
    u = Universe(9)
    for elems in [(), (1,), (2, 5, 9), (1, 2, 3, 4, 5, 6, 7, 8, 9)]:
        assert elements_of(mask_of(elems, u)) == elems
    with pytest.raises(ValueError):
        mask_of([10], u)


def test_submasks():
    assert submasks(0b101) == [0b000, 0b001, 0b100, 0b101]  # ascending
    assert list(submasks(0)) == [0]


# --- Family ----------------------------------------------------------------


def test_family_dedup_and_sort():
    u = Universe(4)
    f = Family(u, [3, 1, 3, 0, 8])
    assert f.members == (0, 1, 3, 8)
    assert len(f) == 4 and 3 in f and 2 not in f


def test_family_rejects_foreign_masks():
    with pytest.raises(ValueError):
        Family(Universe(2), [4])


def test_index_agrees_with_members_exhaustively():
    rng = random.Random(5)
    f = random_family(rng, 12, 40)
    members = set(f.members)
    for m in range(1 << 12):
        assert (m in f) == (m in members)


# --- complement_family -----------------------------------------------------


def test_complement_of_empty_set_family():
    u = Universe(3)
    assert complement_family(fam(u, ())) == fam(u, (1, 2, 3))


def test_complement_of_star3():
    u = Universe(3)
    star3 = fam(u, (1,), (1, 2), (1, 3), (1, 2, 3))
    assert complement_family(star3) == fam(u, (2, 3), (3,), (2,), ())


@given(families())
def test_complement_is_involution(f):
    assert complement_family(complement_family(f)) == f
    assert len(complement_family(f)) == len(f)


# --- down-sets and antichains ----------------------------------------------


def test_is_downset_trivials():
    u = Universe(2)
    assert is_downset(fam(u, (), (1,), (2,), (1, 2)))
    assert not is_downset(fam(u, (1, 2)))
    u5 = Universe(5)
    cube = Family(u5, submasks(mask_of((2, 3, 5), u5)))
    assert is_downset(cube)


@given(wide_families())
@example(Family(Universe(62), [1 << 61]))  # only bit n - 1 has a missing child
@example(Family(Universe(5), [0, 0b11010]))  # only the last member has one
def test_is_downset_matches_definition(f):
    assert is_downset(f) == naive_is_downset(f.members)


@pytest.mark.parametrize(
    ("f", "tops"),
    [
        (Family(Universe(6)), ()),
        (Family(Universe(6), [0]), (0,)),
        (Family(Universe(6), range(64)), (63,)),
    ],
    ids=["empty", "empty-set", "cube"],
)
def test_setcore_primitives_on_trivial_downsets(f, tops):
    assert is_downset(f) and naive_is_downset(f.members)
    assert maximal_elements(f).members == tops == tuple(naive_maximal_elements(f.members))


def test_downset_closure_example():
    u = Universe(2)
    assert closure(fam(u, (1, 2))) == fam(u, (), (1,), (2,), (1, 2))
    assert closure(fam(u, ())) == fam(u, ())
    assert closure(Family(u)) == Family(u)  # level 1 holds the empty set even then


def test_downset_closure_matches_naive_scan():
    rng = random.Random(11)
    f = random_family(rng, 10)
    closed = closure(f)
    below = sum(
        1 for m in range(1 << 10) if any(m | t == t for t in f.members)
    )
    assert len(closed) == below
    assert is_downset(closed)


@given(families())
@example(Family(Universe(3)))
def test_downset_closure_idempotent_extensive(f):
    closed = closure(f)
    assert set(f.members) <= set(closed.members)
    assert closure(closed) == closed
    assert is_downset(closed)


@given(families(max_n=6), st.frozensets(st.integers(0, 63), max_size=6))
def test_downset_closure_monotone(f, extra):
    g = Family(f.universe, set(f.members) | {m & f.universe.full for m in extra})
    assert set(closure(f).members) <= set(closure(g).members)


def test_maximal_elements_examples():
    u = Universe(2)
    assert maximal_elements(fam(u, (), (1,), (1, 2))) == fam(u, (1, 2))
    anti = fam(Universe(4), (1, 2), (3, 4))
    assert maximal_elements(anti) == anti


@given(wide_families())
def test_maximal_elements_matches_definition(f):
    assert list(maximal_elements(f).members) == naive_maximal_elements(f.members)


@pytest.mark.parametrize(
    ("shape", "size"),
    [("closure", 252), ("not-downset", 252 - 21 + 1), ("two-levels", 7 + 120 - 35)],
    ids=["closure", "not-downset", "two-levels"],
)
def test_maximal_elements_across_popcount_levels(shape, size):
    u = Universe(10)
    if shape == "two-levels":
        # the 6-sets of {1..7} over the 3-sets of [10], with no member between:
        # the 35 triples inside {1..7} are candidates but not maximal
        members = {m for m in range(1 << 10) if m.bit_count() == 3}
        members |= {m for m in range(1 << 7) if m.bit_count() == 6}
    else:
        layer = [m for m in range(1 << 10) if m.bit_count() == 5]
        members = set(closure(Family(u, layer)).members)
    if shape == "not-downset":
        # drop the empty set and the pairs, and add a 7-set over 21 of the tops
        members -= {m for m in members if m.bit_count() in (0, 2)}
        members.add(0b1111111)
    f = Family(u, members)
    tops = maximal_elements(f)
    assert list(tops.members) == naive_maximal_elements(f.members)
    assert len(tops) == size


@pytest.mark.parametrize("chunk", [1, 5, 1000])
@pytest.mark.parametrize("shape", ["closure", "not-downset"])
def test_maximal_elements_across_containment_chunks(chunk, shape):
    # the tops of a union are the tops of the union of each part's tops:
    # split f into runs of `chunk` members and merge their tops
    u = Universe(10)
    layer = [m for m in range(1 << 10) if m.bit_count() == 5]
    members = set(closure(Family(u, layer)).members)
    if shape == "not-downset":
        members -= {m for m in members if m.bit_count() in (0, 2)}
        members.add(0b1111111)
    f = Family(u, members)
    tops = maximal_elements(f)
    parts = [
        maximal_elements(Family(u, f.members[i : i + chunk]))
        for i in range(0, len(f), chunk)
    ]
    merged = Family(u, [m for p in parts for m in p.members])
    assert maximal_elements(merged) == tops
    assert list(tops.members) == naive_maximal_elements(f.members)
    assert len(tops) == (252 if shape == "closure" else 252 - 21 + 1)


def test_maximal_elements_vs_quadratic_oracle():
    from kwise import ConstructionParams, build_family

    f = build_family(ConstructionParams(3, 6)).f
    tops = maximal_elements(f)
    assert list(tops.members) == naive_maximal_elements(f.members)
    # closure reads level 1, which grows from maximal_elements, so compare
    # with the submasks of every member instead of closure(f)
    assert closure(tops) == Family(f.universe, (s for m in f for s in submasks(m)))


# --- lattice kernel ----------------------------------------------------------


def test_fold_subsets_is_subset_sum_and_subtract_inverts():
    n = 6
    a = np.random.default_rng(1).integers(-50, 50, 1 << n)
    zeta = fold_subsets(a.copy(), np.add)
    for m in range(1 << n):
        assert zeta[m] == sum(int(a[s]) for s in submasks(m))
    assert np.array_equal(fold_subsets(zeta, np.subtract), a)


def test_moebius_mod_matches_reduction_after_every_pass():
    # residues near 2^31 at n = 16 push the lazy intermediates to ~2^47
    p, n = 2_147_483_647, 16
    a = np.random.default_rng(2).integers(p - 1000, p, 1 << n)
    ref = a.copy()
    for i in range(n):
        v = ref.reshape(-1, 2, 1 << i)
        v[:, 1, :] = (v[:, 1, :] - v[:, 0, :]) % p
    assert np.array_equal(moebius_mod(a, p), ref)


def test_fold_supersets_closure_and_min():
    rng = random.Random(4)
    f = random_family(rng, 7)
    ind = np.zeros(1 << 7, dtype=bool)
    ind[list(f.members)] = True
    closed = fold_supersets(ind, np.logical_or)
    assert set(np.flatnonzero(closed).tolist()) == set(closure(f).members)
    vals = np.random.default_rng(4).integers(0, 100, 1 << 7)
    sup = fold_supersets(vals.copy(), np.minimum)
    for m in range(1 << 7):
        assert sup[m] == min(int(vals[s]) for s in range(1 << 7) if s & m == m)


# --- cover table -----------------------------------------------------------


def test_cover_table_tiny():
    u = Universe(2)
    t = build_cover_table(fam(u, (), (1,), (2,)), 2)
    assert t.covering(0b11) == 2
    assert t.covering(0b01) == 1
    assert t.covering(0b00) == 0


def test_cover_table_powerset_j1():
    u = Universe(4)
    t = build_cover_table(Family(u, range(16)), 1)
    assert t.covering(0) == 0
    for m in range(1, 16):
        assert t.covering(m) == 1


def test_cover_table_input_validation():
    u = Universe(3)
    f = fam(u, (1,))
    with pytest.raises(ValueError):
        build_cover_table(Family(u), 2)
    with pytest.raises(ValueError):
        build_cover_table(f, 0)
    with pytest.raises(ValueError):
        build_cover_table(f, 9)
    big = Family(Universe(25), [1])
    with pytest.raises(ValueError):
        build_cover_table(big, 2)


def test_cover_table_from_indicator_takes_any_01_sequence():
    u = Universe(4)
    f = closure(fam(u, (1, 2), (3,), (2, 4)))
    want = build_cover_table(f, 3).sup
    ind = [int(m in f) for m in range(16)]
    for seq in (ind, bytes(ind), np.array(ind), np.array(ind, dtype=bool)):
        assert cover_table_from_indicator(seq, u, 3).sup == want
    empty = cover_table_from_indicator([0] * 16, u, 2)
    assert empty.covering(0) == 0 and empty.covering(1) is None


@pytest.mark.parametrize("seed", range(8))
def test_cover_table_matches_naive_enumeration(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 8)
    f = random_downset(rng, n)
    if not f.members:
        f = Family(f.universe, [0])
    j_max = rng.randint(1, 4)
    table = build_cover_table(f, j_max)
    naive = superset_min(naive_min_cover(f.members, n, j_max))
    assert bytes(table.sup) == naive.tobytes()


def test_cover_table_sup_is_superset_min():
    rng = random.Random(3)
    f = random_downset(rng, 6)
    if not f.members:
        f = Family(f.universe, [0])
    t = build_cover_table(f, 3)
    naive = naive_min_cover(f.members, 6, 3)
    for m in range(1 << 6):
        best = min(int(naive[s]) for s in range(1 << 6) if s & m == m)
        assert t.sup[m] == best
        assert t.covering(m) == (None if best == t.NONE else best)


# --- the cover searcher -----------------------------------------------------


def covers(f, target, j):
    """Whether some <= j members of f union to a superset of target, by the
    searcher over the maximal members."""
    return CoverSearcher(f).find(target, j) is not None


def test_can_cover_star_example():
    u = Universe(4)
    assert covers(make_star(u), mask_of((2, 3, 4), u), 3)


def test_can_cover_empty_set_family():
    u = Universe(2)
    f = fam(u, ())
    for j in (1, 2, 5):
        assert not covers(f, 0b01, j)
    assert covers(f, 0, 1)


def test_can_cover_backends_agree_on_random_queries():
    rng = random.Random(42)
    n = 9
    f = random_downset(rng, n, 14)
    if not f.members:
        f = Family(f.universe, [0])
    table = build_cover_table(f, 4)
    for _ in range(1000):
        target = rng.randrange(1 << n)
        j = rng.randint(1, 4)
        assert covers(f, target, j) == table.can_cover(target, j)


@given(families(max_n=7), st.integers(0, 127), st.integers(1, 4))
def test_can_cover_monotone_in_budget(f, target, j):
    target &= f.universe.full
    if covers(f, target, j):
        assert covers(f, target, j + 1)


@given(families(max_n=7), st.integers(0, 127), st.integers(0, 127), st.integers(1, 4))
def test_can_cover_antitone_in_target(f, target, sub, j):
    target &= f.universe.full
    sub &= target
    if covers(f, target, j):
        assert covers(f, sub, j)


def test_cover_searcher_edges():
    s = CoverSearcher(Family(Universe(3), [0b011, 0b101]))
    assert s.find(0, 1) == ()
    assert s.find(0b111, 0) is None
    got = s.find(0b111, 2)
    assert got is not None and (got[0] | got[1]) & 0b111 == 0b111
    # an earlier, smaller-budget query does not change a later answer
    f, target = Family(Universe(6), (0b11011, 0b101000, 0b110111)), 0b1011
    s = CoverSearcher(f)
    assert s.find(target, 1) == (0b11011,)
    assert s.find(target, 3) == (0b110111, 0b11011) == CoverSearcher(f).find(target, 3)


def first_cover(tops, target, budget):
    """The first cover of target by <= budget tops, trying at each step the
    tops that hold the lowest uncovered bit, largest first; no memo."""
    if target == 0:
        return ()
    if budget <= 0:
        return None
    low = target & -target
    for t in sorted(tops, key=lambda t: (-t.bit_count(), t)):
        if t & low:
            rest = first_cover(tops, target & ~t, budget - 1)
            if rest is not None:
                return (t, *rest)
    return None


@given(families(max_n=7), st.lists(st.tuples(st.integers(0, 127), st.integers(0, 5)), max_size=12))
@example(Family(Universe(6), (0b11011, 0b101000, 0b110111)), [(0b1011, 1), (0b1011, 3), (0b1011, 2)])
def test_cover_searcher_answers_from_its_arguments_alone(f, queries):
    shared = CoverSearcher(f)
    for target, budget in queries:
        target &= f.universe.full
        got = shared.find(target, budget)
        assert got == CoverSearcher(f).find(target, budget)
        assert got == first_cover(f.members, target, budget)


@given(
    st.integers(1, 7).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(0, (1 << n) - 1), max_size=12),
        st.lists(st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, 4)), max_size=8),
    ))
)
@example((3, [0b001, 0b011, 0b011, 0b100, 0b110], [(0b111, 2), (0b101, 1), (0b111, 1)]))
def test_cover_searcher_answers_as_over_the_raw_members(case):
    """Duplicate and dominated members change no answer: the searcher built
    from the family finds the first cover over the raw list."""
    n, masks, queries = case
    s = CoverSearcher(Family(Universe(n), masks))
    for target, budget in queries:
        assert s.find(target, budget) == first_cover(masks, target, budget)


# --- word helpers ------------------------------------------------------------


def test_word_bits_matches_bit_scan():
    rng = random.Random(41)
    words = [0, 1]
    words += [1 << p for p in (7, 8, 15, 16, 63, 64, 1023, 1024)]  # byte boundaries
    words += [(1 << length) - 1 for length in (1, 3, 9, 13, 100, 1001)]  # all ones
    # many short runs: sparse bits, alternating bits and bytes, random bit pairs
    words += [sum(1 << (8 * rng.randrange(64) + rng.randrange(8)) for _ in range(30))]
    words += [int("01" * 500, 2), int("ff00" * 100, 16)]
    words += [sum(3 << rng.randrange(2000) for _ in range(200))]
    words.append(rng.getrandbits(1 << 18))  # dense, as a greedy result at n = 18
    for w in words:
        got = _word_bits(w)
        assert iter(got) is got  # lazy, so a dense word is never listed
        assert list(got) == [p for p in range(w.bit_length()) if w >> p & 1]


# --- make_star ---------------------------------------------------------------


def test_make_star_sizes():
    assert make_star(Universe(1)).members == (1,)
    star3 = make_star(Universe(3))
    assert len(star3) == 4 and all(m & 1 for m in star3)
    assert len(make_star(Universe(10))) == 512
