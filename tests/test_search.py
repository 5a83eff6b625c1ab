import random
import tracemalloc
from functools import cache
from itertools import combinations

import pytest

from kwise import (
    ConstructionParams,
    Family,
    Universe,
    build_family,
    cube_blocks,
    greedy_saturate,
    is_maximal_kwise,
    oracle_min_size,
    size_table,
    submasks,
)
from kwise import search
from kwise.search import (
    OracleResult,
    _downset_walk,
    _oracle_results,
    _popcount_layers,
    enumerate_downsets,
)
from kwise.setcore import (
    _cover_levels,
    _grow,
    _low_words,
    _word_bits,
    complement_family,
    is_downset,
    maximal_elements,
)
from oracles import (
    brute_downset_indicators,
    brute_first_unsaturated,
    brute_kwise_ok,
    completable,
    cube_family,
    lex_antichain_downsets,
    maximal_arity_range,
    random_family,
    scan_greedy,
)


# --- cover levels ------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 9))
def test_low_words_match_definition(n):
    want = [sum(1 << p for p in range(1 << n) if not p >> i & 1) for i in range(n)]
    assert list(_low_words(n)) == want


def _literal_cover_numbers(inserted, n, cap):
    """Fewest inserted masks whose union contains T, capped, by trying
    every subset of the distinct inserted masks."""
    out = [cap] * (1 << n)
    distinct = sorted(set(inserted))
    for r in range(len(distinct) + 1):
        for combo in combinations(distinct, r):
            union = 0
            for m in combo:
                union |= m
            for t in submasks(union):
                out[t] = min(out[t], r, cap)
    return out


def _levels_of(c, cap):
    return tuple(sum(1 << p for p, v in enumerate(c) if v <= t) for t in range(cap))


def test_cover_levels_match_definition():
    # levels 0..cap-1 hold exactly the masks of cover number <= t; a repeat
    # or a mask under an earlier one (0 included) changes no level
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(1, 6)
        cap = rng.choice((2, 3, n + 1))
        low = tuple(_low_words(n))
        levels = (1,) * cap
        inserted = []
        assert levels == _levels_of(_literal_cover_numbers(inserted, n, cap), cap)
        for _ in range(rng.randint(0, 8)):
            pick = rng.random()
            if inserted and pick < 0.2:
                x = rng.choice(inserted)
            elif inserted and pick < 0.4:
                x = rng.choice(inserted) & rng.randrange(1 << n)
            else:
                x = rng.randrange(1 << n)
            new = x != 0 and all(x | m != m for m in inserted)
            grown = _grow(levels, x, low)
            assert (grown != levels) == new
            levels = grown
            inserted.append(x)
            want = _levels_of(_literal_cover_numbers(inserted, n, cap), cap)
            assert levels == want, (n, cap, inserted)


def test_cover_levels_of_a_family_match_growing_every_member():
    # _cover_levels grows only the maximal members, which must give the
    # levels of all of them: down-sets or not, repeated and nested masks
    rng = random.Random(41)
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 7)
        masks = [rng.randrange(1 << n) for _ in range(rng.randint(0, 8))]
        masks += [m & rng.randrange(1 << n) for m in masks[:3]] + masks[:2]
        if rng.random() < 0.25:
            masks = [s for m in masks for s in submasks(m)]
        f = Family(Universe(n), masks)
        low = tuple(_low_words(n))
        for depth in {1, 2, n}:
            want = (1,) * (depth + 1)
            for x in f.members:
                want = _grow(want, x, low)
            assert _cover_levels(f, depth, low) == want, (n, depth, masks)
        seen.add((is_downset(f), len(maximal_elements(f)) < len(f)))
    assert len(seen) == 4  # down-set or not, with members under others or not


# --- down-set enumeration ----------------------------------------------------


@pytest.mark.parametrize("n,count", [(1, 3), (2, 6), (3, 20), (4, 168), (5, 7581)])
def test_downset_counts(n, count):
    assert sum(1 for _ in enumerate_downsets(Universe(n))) == count


def test_downsets_are_downsets_and_unique():
    seen = set()
    for g in enumerate_downsets(Universe(4)):
        assert is_downset(g)
        assert g.members not in seen
        seen.add(g.members)


def test_downsets_match_brute_monotone_filter():
    for n in (1, 2, 3, 4):
        ours = {frozenset(g.members) for g in enumerate_downsets(Universe(n))}
        brute = set(brute_downset_indicators(n))
        assert ours == brute


def test_downsets_start_in_lex_antichain_order():
    first = [g.members for g in enumerate_downsets(Universe(2))]
    assert first[:3] == [(), (0,), (0, 1)]


@cache
def reference_walk(n):
    """(down-set, lo, hi) for every down-set in reference order, with the
    interval from the per-family maximal_arity_range."""
    return [(g, *maximal_arity_range(g)) for g in lex_antichain_downsets(Universe(n))]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_downsets_match_reference_sequence(n):
    ours = [g.members for g in enumerate_downsets(Universe(n))]
    assert ours == [g.members for g, _, _ in reference_walk(n)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_walk_interval_matches_maximal_arity_range(n):
    walk = [(d, lo, hi) for d, lo, hi in _downset_walk(n)]
    assert len(walk) == len(reference_walk(n))
    for (d, lo, hi), (g, ref_lo, ref_hi) in zip(walk, reference_walk(n)):
        assert d == sum(1 << m for m in g.members)
        assert (lo, hi) == (ref_lo, ref_hi)


def test_downsets_rejects_large_universe():
    with pytest.raises(ValueError):
        next(enumerate_downsets(Universe(6)))


# --- exhaustive oracle -------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_oracle_k2_is_half_the_powerset(n):
    res = oracle_min_size(2, Universe(n))
    assert res.f_k_n == 1 << (n - 1)
    assert len(res.sample_extremal) == res.f_k_n
    assert is_maximal_kwise(res.sample_extremal, 2, "direct").ok


def test_oracle_k3_n4_bounded_by_construction():
    res = oracle_min_size(3, Universe(4))
    assert res.f_k_n <= 5
    built = build_family(ConstructionParams(3, 4))
    assert is_maximal_kwise(built.f, 3, "complement").ok
    assert is_maximal_kwise(res.sample_extremal, 3, "direct").ok


def test_oracle_never_beats_the_star():
    for k in (2, 3, 4):
        res = oracle_min_size(k, Universe(4))
        assert res.f_k_n <= 8


def test_oracle_k4_n5_below_construction_range():
    # no construction exists here (n < 2(k-1)); the value is still defined
    res = oracle_min_size(4, Universe(5))
    assert 1 <= res.f_k_n <= 16
    assert is_maximal_kwise(res.sample_extremal, 4, "direct").ok


def _maximal_by_definition(g, k):
    members = list(g.members)
    n = g.universe.n
    return brute_kwise_ok(members, n, k) and brute_first_unsaturated(members, n, k) is None


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_maximal_arity_range_matches_verifier(n):
    # k runs past n, where c(full) <= n < k unless some element is uncovered
    for g in enumerate_downsets(Universe(n)):
        lo, hi = maximal_arity_range(g)
        for k in range(2, n + 4):
            expect = lo <= k < hi
            assert is_maximal_kwise(g, k, "complement").ok == expect
            assert _maximal_by_definition(g, k) == expect


def test_maximal_arity_range_matches_verifier_n5_sample():
    sample = random.Random(5).sample(list(enumerate_downsets(Universe(5))), 300)
    for g in sample:
        lo, hi = maximal_arity_range(g)
        for k in range(2, 7):
            assert is_maximal_kwise(g, k, "complement").ok == (lo <= k < hi)


def test_oracle_one_pass_for_many_ks_matches_single_k():
    # a repeated arity must not count its achievers twice
    u = Universe(4)
    shared = _oracle_results([3, 2, 3, 6], u)
    assert shared == {k: oracle_min_size(k, u) for k in (2, 3, 6)}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_oracle_matches_reference(n):
    # k = 10**6 lies past every finite cover number: it checks the inf ends
    # of the intervals
    u = Universe(n)
    ks = list(range(2, n + 4)) + [10**6]
    expect = {}
    for k in ks:
        sizes = [len(g) for g, lo, hi in reference_walk(n) if lo <= k < hi]
        f = min(sizes)
        first = next(g for g, lo, hi in reference_walk(n) if lo <= k < hi and len(g) == f)
        expect[k] = OracleResult(k, n, f, sizes.count(f), complement_family(first))
    assert _oracle_results(ks, u) == expect


@cache
def uncut_walk(n):
    return list(_downset_walk(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kmin", range(2, 9))
def test_cut_walk_keeps_the_uncut_nodes_that_pass_both_cuts(n, kmin):
    # both cuts are monotone down a branch, so the cut walk is exactly the
    # uncut walk, in its order, less every node that fails one of them:
    # more than 2^(n-1) members, or c(full) = hi <= min(kmin, n)
    keep = [(d, lo, hi) for d, lo, hi in uncut_walk(n)
            if d.bit_count() <= 1 << (n - 1) and hi > min(kmin, n)]
    assert list(_downset_walk(n, kmin)) == keep


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cut_oracle_matches_uncut_walk_for_every_arity_subset(n):
    u = Universe(n)
    expect = {}
    for k in range(2, 9):
        sizes = [d.bit_count() for d, lo, hi in uncut_walk(n) if lo <= k < hi]
        f = min(sizes)
        first = next(d for d, lo, hi in uncut_walk(n) if lo <= k < hi and d.bit_count() == f)
        expect[k] = OracleResult(
            k, n, f, sizes.count(f), complement_family(Family(u, _word_bits(first)))
        )
    for r in range(1, 8):
        for ks in combinations(range(2, 9), r):
            assert _oracle_results(ks, u) == {k: expect[k] for k in ks}, ks


@pytest.mark.parametrize("kmin,nodes", [(None, 7581), (2, 2646), (3, 763), (4, 688)])
def test_cut_walk_node_counts_at_n5(kmin, nodes):
    assert sum(1 for _ in _downset_walk(5, kmin)) == nodes


def test_oracle_makes_no_per_downset_families(monkeypatch):
    calls = []
    original = Family.__init__

    def counting(self, *args):
        calls.append(1)
        original(self, *args)

    monkeypatch.setattr(Family, "__init__", counting)
    assert oracle_min_size(3, Universe(5)).f_k_n == 9
    # the achiever and its complement, not one family per down-set
    assert len(calls) == 2
    maximal_arity_range(Family(Universe(3), [1, 2]))
    assert len(calls) == 4  # the counter sees the per-family form


def test_oracle_validation():
    with pytest.raises(ValueError):
        oracle_min_size(1, Universe(3))
    with pytest.raises(ValueError):
        oracle_min_size(2, Universe(6))
    # the message names the least k, and no arity asks for nothing
    with pytest.raises(ValueError, match="^arity k must be >= 2, got 0$"):
        _oracle_results((3, 1, 0), Universe(3))
    assert _oracle_results((), Universe(3)) == {}


def test_oracle_with_no_arity_walks_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("the walk ran for no arity")

    monkeypatch.setattr(search, "_downset_walk", refuse)
    assert _oracle_results((), Universe(5)) == {}
    # the n bound still holds with nothing asked
    with pytest.raises(ValueError, match="^exhaustive oracle needs n <= 5, got n=6$"):
        _oracle_results((), Universe(6))


# --- greedy saturation -------------------------------------------------------


def test_greedy_k2_always_half_powerset():
    for seed in (0, 1, 17):
        g = greedy_saturate(Family(Universe(6)), 2, seed)
        assert len(g) == 32
        assert is_maximal_kwise(g, 2, "complement").ok


def test_greedy_leaves_maximal_family_unchanged():
    built = build_family(ConstructionParams(4, 9))
    for seed in (0, 5, 99):
        assert greedy_saturate(built.f, 4, seed) == built.f


def test_greedy_results_verify_over_seeds():
    sizes = []
    for seed in range(10):
        g = greedy_saturate(Family(Universe(8)), 3, seed)
        assert is_maximal_kwise(g, 3, "complement").ok
        assert is_downset(g)
        sizes.append(len(g))
    assert min(sizes) <= max(sizes)


def test_greedy_deterministic_per_seed():
    a = greedy_saturate(Family(Universe(7)), 3, 12345)
    b = greedy_saturate(Family(Universe(7)), 3, 12345)
    c = greedy_saturate(Family(Universe(7)), 3, 54321)
    assert a == b
    assert is_maximal_kwise(c, 3, "complement").ok


def test_greedy_popcount_order():
    a = greedy_saturate(Family(Universe(7)), 3, 0, order="popcount")
    b = greedy_saturate(Family(Universe(7)), 3, 77, order="popcount")
    assert a == b  # the order ignores the seed entirely
    assert is_maximal_kwise(a, 3, "complement").ok


@pytest.mark.parametrize("n", range(1, 13))
def test_popcount_order_is_larger_sets_first_then_ascending(n):
    # the popcount order reads the layer words from the highest popcount down
    want = sorted(range(1 << n), key=lambda m: (-m.bit_count(), m))
    assert [m for layer in reversed(_popcount_layers(n)) for m in _word_bits(layer)] == want


def test_greedy_rejects_bad_seed_family():
    u = Universe(4)
    with pytest.raises(ValueError):
        greedy_saturate(Family(u, [u.full]), 3, 0)
    with pytest.raises(ValueError):
        greedy_saturate(Family(Universe(21)), 3, 0)
    with pytest.raises(ValueError):
        greedy_saturate(Family(u), 1, 0)
    with pytest.raises(ValueError):
        greedy_saturate(Family(u), 3, 0, order="sideways")
    with pytest.raises(ValueError, match="^arity k must be >= 2, got 0$"):
        greedy_saturate(Family(u), 0, 0)
    # n is checked before k
    with pytest.raises(ValueError, match="^greedy saturation needs n <= 20, got n=21$"):
        greedy_saturate(Family(Universe(21)), 0, 0)


def test_greedy_rejects_unknown_order_before_the_seed_check():
    # the order is checked with n and k, so a seed that is not k-wise does
    # not hide it
    u = Universe(4)
    with pytest.raises(ValueError, match="^unknown candidate order 'bogus'$"):
        greedy_saturate(Family(u, [u.full]), 3, 0, order="bogus")


def _partition_seed(rng, n, j):
    """A seed with c(full) exactly j: the j blocks of a random partition of
    [n] plus a few subsets of blocks, so usually not a down-set."""
    labels = list(range(j)) + [rng.randrange(j) for _ in range(n - j)]
    rng.shuffle(labels)
    blocks = [sum(1 << e for e in range(n) if labels[e] == b) for b in range(j)]
    extra = [rng.choice(blocks) & rng.randrange(1 << n) for _ in range(rng.randint(0, 3))]
    return Family(Universe(n), blocks + extra)


def test_greedy_seed_check_matches_brute_force():
    # the greedy accepts a seed iff no <= k members union to the full set
    rng = random.Random(29)
    cases = [(random_family(rng, n, 8), rng.randint(2, n + 3))
             for n in (rng.randint(1, 7) for _ in range(300))]
    for _ in range(150):
        n = rng.randint(2, 6)
        j = rng.randint(2, n)
        g = _partition_seed(rng, n, j)
        cases += [(g, j), (g, j - 1)] if j > 2 else [(g, j)]  # c(full) = k, k + 1
    # the smallest top, 0b00110, lies in no 2-cover; 0b01010 | 0b10101 = full
    cases.append((Family(Universe(5), [0b00110, 0b01010, 0b10101]), 2))
    seen = set()
    for g, k in cases:
        n = g.universe.n
        ok = brute_kwise_ok(list(g.members), n, k)
        try:
            greedy_saturate(g, k, 0)
        except ValueError as exc:
            assert not ok, (g.members, k)
            assert str(exc) == "seed family is not k-wise intersecting in the complement world"
        else:
            assert ok, (g.members, k)
        seen.add((ok, k - 1 >= n, is_downset(g)))
    assert len(seen) == 8  # both verdicts, with k - 1 >= n or not, down-set or not


def test_greedy_extends_given_seed_family():
    built = build_family(ConstructionParams(3, 6))
    g0 = Family(built.f.universe, built.f.members[:4])
    out = greedy_saturate(g0, 3, 3)
    assert set(g0.members) <= set(out.members)
    assert is_maximal_kwise(out, 3, "complement").ok


def test_greedy_n15_verifies_maximal():
    # a larger universe than the exhaustive checks below reach
    g = greedy_saturate(Family(Universe(15)), 3, 2)
    lo, hi = maximal_arity_range(g)
    assert lo <= 3 < hi
    assert is_maximal_kwise(g, 3, "complement").ok


def _reference_greedy(seed_members, n, k, order_seed, order):
    """Greedy by definition: repeat passes over the candidate order, adding
    every mask that no <= k-1 members complete to the full set, until a
    pass adds nothing."""
    cand = list(range(1 << n))
    if order == "random":
        random.Random(order_seed).shuffle(cand)
    else:
        cand.sort(key=lambda m: (-m.bit_count(), m))
    members = set(seed_members)
    added = True
    while added:
        added = False
        tops = [m for m in members if not any(m | o == o != m for o in members)]
        for x in cand:
            if x not in members and not completable(tops, x, n, k):
                members.add(x)
                tops = [t for t in tops if t | x != x] + [x]
                added = True
    return members


def _greedy_cell(members, n, k, order, order_seed):
    got = greedy_saturate(Family(Universe(n), members), k, order_seed, order=order)
    want = _reference_greedy(members, n, k, order_seed, order)
    assert set(got.members) == want, (k, n, sorted(members), order, order_seed)


def test_greedy_matches_reference_greedy():
    # from the empty family in both orders, then from random down-sets and
    # from random k-wise families that are not down-sets
    rng, unclosed_rng = random.Random(3), random.Random(4)
    seeded = unclosed = 0
    for k in range(2, 6):
        for n in range(1, 8 if k < 5 else 7):  # the reference is slow at (5, 7)
            runs = [((), "popcount", 0), ((), "random", rng.randrange(1000))]
            for _ in range(4):
                tops = [rng.randrange(1 << n) for _ in range(rng.randint(1, 3))]
                members = {s for m in tops for s in submasks(m)}
                if brute_kwise_ok(sorted(members), n, k):
                    order = rng.choice(("random", "popcount"))
                    runs.append((members, order, rng.randrange(1000)))
                    seeded += 1
            for _ in range(4):
                r = unclosed_rng
                members = {r.randrange(1 << n) for _ in range(r.randint(1, 5))}
                if not is_downset(Family(Universe(n), members)) and brute_kwise_ok(
                    sorted(members), n, k
                ):
                    runs.append((members, r.choice(("random", "popcount")), r.randrange(1000)))
                    unclosed += 1
            for members, order, order_seed in runs:
                _greedy_cell(members, n, k, order, order_seed)
    assert seeded >= 40
    assert unclosed >= 30


@pytest.mark.parametrize("k", [6, 9])
def test_greedy_matches_reference_when_k_exceeds_n(k):
    # k - 1 >= n: the greedy reads level n, where c(T) <= n or c(T) is inf
    rng = random.Random(k)
    for n in range(1, 6):
        for order in ("popcount", "random"):
            _greedy_cell((), n, k, order, rng.randrange(1000))
            members = {rng.randrange(1 << n) for _ in range(rng.randint(1, 4))}
            if brute_kwise_ok(sorted(members), n, k):
                _greedy_cell(members, n, k, order, rng.randrange(1000))


def test_greedy_matches_reference_from_large_seed():
    # the construction at (4, 9) without two of its tops: 32 members, of
    # which only the 9 tops left enter the cover levels
    f = build_family(ConstructionParams(4, 9)).f
    dropped = set(maximal_elements(f).members[:2])
    members = set(f.members) - dropped
    assert len(maximal_elements(Family(f.universe, members))) == 9
    for order, order_seed in (("popcount", 0), ("random", 5)):
        _greedy_cell(members, 9, 4, order, order_seed)
    # a seed that is not a down-set: the same, less the empty set
    _greedy_cell(members - {0}, 9, 4, "random", 11)


def _unclosed_seed(rng, n, k):
    """A k-wise seed of a few random masks that is not a down-set."""
    while True:
        members = {rng.getrandbits(n) & rng.getrandbits(n) for _ in range(3)}
        g = Family(Universe(n), members)
        if not is_downset(g) and brute_kwise_ok(sorted(members), n, k):
            return g


def _greedy_outcome(greedy, g0, k, order_seed, order):
    try:
        return set(greedy(g0, k, order_seed, order=order))
    except ValueError as exc:
        return str(exc)


def _thinned_construction(k, n):
    """The (k, n) construction less every third top: its popcount order
    grows several times inside one layer (6 at (3, 12), 8 at (3, 16))."""
    tops = maximal_elements(build_family(ConstructionParams(k, n)).f).members
    return Family(Universe(n), (t for i, t in enumerate(tops) if i % 3 != 2))


def test_greedy_matches_scan_greedy_at_larger_n():
    # from the empty family, from a k-wise seed that is not a down-set, from
    # a seed with c(full) = k, which both greedies refuse alike, and for
    # k >= 3 from a thinned construction
    rng = random.Random(17)
    refused = 0
    for n in (12, 14, 16):
        for k in range(2, 6):
            seeds = (Family(Universe(n)), _unclosed_seed(rng, n, k), _partition_seed(rng, n, k))
            if k >= 3:
                seeds += (_thinned_construction(k, n),)
            for g0 in seeds:
                for order in ("random", "popcount"):
                    order_seed = rng.randrange(1000)
                    got, want = (_greedy_outcome(greedy, g0, k, order_seed, order)
                                 for greedy in (greedy_saturate, scan_greedy))
                    assert got == want, (n, k, g0.members, order, order_seed)
                    refused += isinstance(want, str)
    assert refused == 3 * 4 * 2


def test_greedy_peak_memory_stays_near_its_result():
    # the greedy keeps a few 2^n-bit words beside the family it returns,
    # so its peak stays close to what the result retains
    greedy_saturate(Family(Universe(4)), 3, 0, order="popcount")
    g0 = Family(Universe(16))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g = greedy_saturate(g0, 3, 0, order="popcount")
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(g) == 1 << 15
    assert peak - base <= 1.5 * (retained - base)


# --- cube families -----------------------------------------------------------


def block_systems(n):
    """Every set of pairwise disjoint blocks of at least 3 elements over
    [n], each as a tuple ordered by least element: the least element not
    yet placed either stays outside every block or opens a block."""

    def extend(free):
        if not free:
            yield ()
            return
        low, rest = free[0], free[1:]
        yield from extend(rest)
        for r in range(2, len(rest) + 1):
            for chosen in combinations(rest, r):
                block = sum((low, *chosen))
                for tail in extend(tuple(e for e in rest if e not in chosen)):
                    yield (block, *tail)

    return list(extend(tuple(1 << i for i in range(n))))


@cache
def cube_lookup(n):
    """Each cube family over [n], mapped to its blocks."""
    return {cube_family(n, blocks): blocks for blocks in block_systems(n)}


@pytest.mark.parametrize("n,cubes", [(1, 1), (2, 1), (3, 2), (4, 6), (5, 17)])
def test_cube_blocks_matches_brute_force_on_every_downset(n, cubes):
    lookup = cube_lookup(n)
    assert len(lookup) == cubes
    found = 0
    for g in enumerate_downsets(Universe(n)):
        assert cube_blocks(g) == lookup.get(g), g.members
        found += g in lookup
    assert found == cubes


@pytest.mark.parametrize("n,systems", [(6, 53), (7, 205), (8, 871)])
def test_cube_blocks_recognises_every_block_system(n, systems):
    # Q covers [n] with two members per block and one per element outside,
    # so it is maximal exactly at k = c(full) - 1 = n - sum(|B| - 2) - 1,
    # which is 1, no arity, when one block is all of [n]
    assert len(block_systems(n)) == systems
    for blocks in block_systems(n):
        g = cube_family(n, blocks)
        assert cube_blocks(g) == blocks
        k = n - sum(b.bit_count() - 2 for b in blocks) - 1
        for arity in (k - 1, k, k + 1):
            if arity >= 2:
                assert is_maximal_kwise(g, arity, "complement").ok == (arity == k), blocks


def test_cube_blocks_rejects_every_family_but_q():
    rng = random.Random(27)
    for _ in range(300):
        n = rng.randint(1, 8)
        lookup = cube_lookup(n)
        q = rng.choice(list(lookup))
        members = set(q.members)
        roll = rng.random()
        if roll < 0.3:
            members.discard(rng.choice(q.members))
        elif roll < 0.6:
            members.add(rng.randrange(1 << n))
        elif roll < 0.8:
            members ^= {rng.randrange(1 << n) for _ in range(rng.randint(1, 3))}
        else:
            members = set(random_family(rng, n, 3 * n).members)
        g = Family(Universe(n), members)
        assert cube_blocks(g) == lookup.get(g), (n, sorted(members))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_first_oracle_achiever_is_a_cube_family(n):
    for k in range(2, n):
        g = complement_family(oracle_min_size(k, Universe(n)).sample_extremal)
        blocks = cube_blocks(g)
        assert blocks is not None, (k, n)
        assert k == n - sum(b.bit_count() - 2 for b in blocks) - 1
    if n > 3:
        g = complement_family(oracle_min_size(3, Universe(n)).sample_extremal)
        assert cube_blocks(g) == {4: (), 5: (0b11100,)}[n]


# (n, k) -> (achievers, achievers that are cube families); at 3 <= k <= n - 1
# every achiever is one, at k = n none is (Q is maximal at c(full) - 1 < n)
ACHIEVERS = {
    (3, 2): (4, 1), (3, 3): (3, 0),
    (4, 2): (12, 4), (4, 3): (1, 1), (4, 4): (4, 0),
    (5, 2): (81, 5), (5, 3): (10, 10), (5, 4): (1, 1), (5, 5): (5, 0),
}


@pytest.mark.parametrize("n", [3, 4, 5])
def test_every_achiever_counted_by_cube_shape(n):
    u = Universe(n)
    ranges = [(g, *maximal_arity_range(g)) for g in enumerate_downsets(u)]
    results = _oracle_results(range(2, n + 1), u)
    for k in range(2, n + 1):
        f = results[k].f_k_n
        achievers = [g for g, lo, hi in ranges if lo <= k < hi and len(g) == f]
        cubes = sum(cube_blocks(g) is not None for g in achievers)
        assert (len(achievers), cubes) == ACHIEVERS[n, k], k
        assert len(achievers) == results[k].extremal_count, k


# --- size table --------------------------------------------------------------


def test_size_table_cells():
    rows = size_table([2, 3, 4], range(4, 10))
    by_cell = {(r["k"], r["n"]): r for r in rows}
    assert by_cell[(3, 8)]["size"] == 29
    assert by_cell[(3, 8)]["formula"] == 29
    assert by_cell[(2, 4)]["oracle"] == 8
    assert by_cell[(4, 9)]["size"] == 34
    assert by_cell[(4, 9)]["formula"] == 34
    assert by_cell[(3, 7)]["formula"] == 21  # uneven blocks of 4 and 3
    assert all(r["formula"] == r["size"] for r in rows)
    assert by_cell[(4, 4)]["size"] is None  # below 2(k-1)
    assert by_cell[(2, 6)]["oracle"] is None  # beyond the oracle range
    assert by_cell[(2, 4)]["size"] is None  # no construction for k=2
    assert all(r["greedy_min"] is None for r in rows)  # greedy sizes are `kwise greedy`'s
