import pickle

import pytest

from kwise import (
    ConstructionParams,
    Family,
    Universe,
    build_family,
    complement_family,
    construction_tops,
    cube_blocks,
    expected_size,
    make_partition,
    maximal_elements,
    submasks,
)
from kwise.setcore import is_downset
from oracles import construction_pieces, definition_family, mask_of


def test_params_validation():
    ConstructionParams(3, 4)
    with pytest.raises(ValueError):
        ConstructionParams(2, 10)
    with pytest.raises(ValueError):
        ConstructionParams(4, 5)


@pytest.mark.parametrize(
    ("k", "n", "message"),
    [
        (2, 10, r"construction requires k >= 3, got k=2"),
        (4, 5, r"construction requires n >= 2\(k-1\) = 6, got n=5"),
    ],
)
def test_params_validation_messages(k, n, message):
    with pytest.raises(ValueError, match=message):
        ConstructionParams(k, n)
    with pytest.raises(ValueError, match=message):
        ConstructionParams(n=n, k=k)


def test_params_contract():
    p = ConstructionParams(4, 9)
    assert p == ConstructionParams(k=4, n=9)
    assert (p.k, p.n, p.num_blocks) == (4, 9, 3)
    assert p._fields == ("k", "n")
    assert repr(p) == "ConstructionParams(k=4, n=9)"
    assert hash(p) == hash(ConstructionParams(4, 9))
    assert len({p, ConstructionParams(4, 9), ConstructionParams(4, 10)}) == 2
    # equal only to its own class, as a frozen dataclass is
    assert p != (4, 9) and (4, 9) != p
    assert pickle.loads(pickle.dumps(p)) == p
    with pytest.raises(AttributeError):
        p.k = 5
    with pytest.raises(AttributeError):
        p.extra = 1
    # _replace builds through __new__, so it checks the fields too
    assert p._replace(n=12) == ConstructionParams(4, 12)
    with pytest.raises(ValueError, match="k >= 3"):
        p._replace(k=2)


def test_make_partition_k3_n6():
    u = Universe(6)
    blocks = (mask_of((1, 2, 3), u), mask_of((4, 5, 6), u))
    assert make_partition(ConstructionParams(3, 6)) == blocks


def test_make_partition_near_equal_split():
    # blocks of 3, 2, 2 with least elements, the specials, 1, 4, 6
    assert make_partition(ConstructionParams(4, 7)) == (0b0000111, 0b0011000, 0b1100000)


def test_partition_invariants():
    """k - 1 nonempty, pairwise disjoint blocks covering the universe, of
    sizes within 1 of each other, larger first and ascending by least
    element; at k = 3 they are the blocks that cube_blocks reads off F."""
    cells = 0
    for k in range(3, 16):
        for n in range(2 * (k - 1), 31):
            p = ConstructionParams(k, n)
            blocks = make_partition(p)
            assert len(blocks) == k - 1, (k, n)
            union = 0
            for b in blocks:
                assert b and not union & b, (k, n)
                union |= b
            assert union == (1 << n) - 1, (k, n)
            sizes = [b.bit_count() for b in blocks]
            assert max(sizes) - min(sizes) <= 1 and sizes == sorted(sizes, reverse=True), (k, n)
            assert [b & -b for b in blocks] == sorted(b & -b for b in blocks), (k, n)
            if k == 3 and n >= 6:
                built = build_family(p)
                assert cube_blocks(built.f) == built.blocks, (k, n)
            cells += 1
    assert cells == 195


def test_tops_k4_n6():
    # blocks {1,2} {3,4} {5,6}, specials 1 3 5: each block gives B - a and
    # (B - b) | E with E the one special of neither it nor its predecessor
    u = Universe(6)
    tops = construction_tops(ConstructionParams(4, 6))
    want = [(2,), (4,), (6,), (1, 3), (3, 5), (1, 5)]
    assert tops == Family(u, (mask_of(t, u) for t in want))


def test_family_matches_definition_predicate():
    cells = 0
    for k in range(3, 8):
        for n in range(2 * (k - 1), 13):
            p = ConstructionParams(k, n)
            built = build_family(p)
            assert built.f == definition_family(built.blocks, n), (k, n)
            cells += 1
    assert cells == 25


def test_tops_are_the_maximal_members():
    cells = 0
    for k in range(3, 16):
        for n in range(2 * (k - 1), 25):
            p = ConstructionParams(k, n)
            tops = construction_tops(p)
            assert tops == maximal_elements(build_family(p).f), (k, n)
            assert len(tops) == n, (k, n)
            cells += 1
    assert cells == 121


def test_family_sizes_match_direct_counts():
    assert len(build_family(ConstructionParams(3, 6)).f) == 13
    assert len(build_family(ConstructionParams(4, 6)).f) == 10
    assert len(build_family(ConstructionParams(5, 8)).f) == 19


def test_k3_family_is_two_punctured_cubes():
    built = build_family(ConstructionParams(3, 6))
    want = set()
    for block in built.blocks:
        want.update(s for s in submasks(block) if s != block)
    assert set(built.f.members) == want


def test_expected_size_values():
    assert expected_size(ConstructionParams(3, 8)) == 29
    assert expected_size(ConstructionParams(4, 9)) == 34
    # uneven blocks: sizes (3, 2), (3, 2, 2), (3, 3, 2, 2) and (4, 3)
    assert expected_size(ConstructionParams(3, 5)) == 9
    assert expected_size(ConstructionParams(4, 7)) == 18
    assert expected_size(ConstructionParams(5, 10)) == 51
    assert expected_size(ConstructionParams(3, 7)) == 21


def test_size_equals_block_sum_for_every_cell():
    """expected_size, the block sum, counts the family on every cell."""
    for k in range(3, 16):
        for n in range(2 * (k - 1), 31):
            p = ConstructionParams(k, n)
            assert expected_size(p) == len(build_family(p).f), (k, n)


@pytest.mark.parametrize("k,n", [(3, 6), (3, 8), (4, 6), (4, 9), (5, 8), (6, 10)])
def test_three_part_count_decomposition(k, n):
    p = ConstructionParams(k, n)
    built = build_family(p)
    specials = sum(b & -b for b in built.blocks)
    m = n // (k - 1)

    in_f2 = {
        x
        for x in built.f.members
        if any(piece == "F2" for piece, _ in construction_pieces(built.blocks, x))
    }
    tops_removed = {block & ~(block & -block) for block in built.blocks}

    part_specials = {x for x in built.f.members if x | specials == specials}
    part_f2 = {x for x in in_f2 if x | specials != specials}
    part_tops = set(tops_removed)

    assert len(part_specials) == (1 << (k - 1)) - 1
    assert len(part_f2) == (k - 1) * ((1 << m) - 4) * (1 << (k - 3))
    assert len(part_tops) == k - 1
    # the three classes partition the family
    assert part_specials | part_f2 | part_tops == set(built.f.members)
    assert not part_specials & part_f2
    assert not part_specials & part_tops
    assert not part_f2 & part_tops


def test_family_is_downset_without_full_set():
    for k, n in [(3, 7), (4, 9), (5, 9), (6, 11)]:
        built = build_family(ConstructionParams(k, n))
        u = built.f.universe
        assert is_downset(built.f)
        assert u.full not in built.f
        # the complement family is an up-set without the empty set
        fbar = complement_family(built.f)
        assert 0 not in fbar
        assert complement_family(fbar) == built.f
        for m in fbar.members:
            rest = (~m) & u.full
            while rest:
                bit = rest & -rest
                assert (m | bit) in fbar
                rest ^= bit


def test_growth_stays_under_cap():
    # size <= C * 2^(n/(k-1)) with C = (k-1) * 2^(k-3) + 1, compared with
    # exact integer powers to avoid float tolerance
    for k in (3, 4, 5, 6):
        cap = (k - 1) * (1 << k) // 8 + 1
        for n in range(2 * (k - 1), 19):
            size = len(build_family(ConstructionParams(k, n)).f)
            assert size ** (k - 1) <= cap ** (k - 1) * (1 << n), (k, n, size)
