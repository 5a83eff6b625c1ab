import pickle

import pytest

from kwise import (
    BlockPartition,
    ConstructionParams,
    Family,
    Universe,
    build_family,
    complement_family,
    construction_tops,
    expected_size,
    is_downset,
    make_partition,
    maximal_elements,
    submasks,
)
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


def test_partition_contract():
    u = Universe(7)
    bp = BlockPartition(u, (0b0000111, 0b0011000, 0b1100000), (1, 4, 6))
    assert bp == make_partition(ConstructionParams(4, 7))
    assert bp == BlockPartition(universe=u, blocks=bp.blocks, specials=bp.specials)
    assert bp._fields == ("universe", "blocks", "specials")
    assert repr(bp) == (
        "BlockPartition(universe=Universe(7), blocks=(7, 24, 96), specials=(1, 4, 6))"
    )
    assert (bp.num_blocks, bp.specials_mask, bp.block_sizes()) == (3, 0b0101001, (3, 2, 2))
    assert hash(bp) == hash(make_partition(ConstructionParams(4, 7)))
    assert bp != tuple(bp)
    assert pickle.loads(pickle.dumps(bp)) == bp
    with pytest.raises(AttributeError):
        bp.blocks = ()
    with pytest.raises(AttributeError):
        bp.extra = 1
    with pytest.raises(ValueError, match="sizes may differ"):
        bp._replace(blocks=(0b0000001, 0b0011110, 0b1100000))


def test_make_partition_k3_n6():
    bp = make_partition(ConstructionParams(3, 6))
    u = bp.universe
    assert bp.blocks == (mask_of((1, 2, 3), u), mask_of((4, 5, 6), u))
    assert bp.specials == (1, 4)


def test_make_partition_near_equal_split():
    bp = make_partition(ConstructionParams(4, 7))
    assert bp.block_sizes() == (3, 2, 2)
    assert bp.specials == (1, 4, 6)


@pytest.mark.parametrize(
    ("blocks", "specials", "message"),
    [
        ((), (), "exactly one special element per block required"),
        ((0b0011, 0b1100), (1,), "exactly one special element per block required"),
        ((0b0011, 0b10000), (1, 5), "does not fit a universe of size 4"),
        ((0b1111, 0), (1, 1), "blocks must be nonempty"),
        ((0b0011, 0b0110), (1, 2), "blocks must be pairwise disjoint"),
        ((0b0011, 0b0100), (1, 3), "blocks must cover the whole universe"),
        ((0b0111, 0b1000), (1, 4), "block sizes may differ by at most 1"),
        ((0b0011, 0b1100), (1, 1), "special element 1 outside its block"),
        ((0b0011, 0b1100), (1, 5), "special element 5 outside its block"),
    ],
)
def test_block_partition_validation_messages(blocks, specials, message):
    with pytest.raises(ValueError, match=message):
        BlockPartition(Universe(4), blocks, specials)


def test_block_partition_validation():
    u = Universe(4)
    with pytest.raises(ValueError):
        BlockPartition(u, (0b0011, 0b0110), (1, 2))  # overlap
    with pytest.raises(ValueError):
        BlockPartition(u, (0b0011, 0b0100), (1, 3))  # does not cover
    with pytest.raises(ValueError):
        BlockPartition(u, (0b0111, 0b1000), (1, 4))  # sizes differ by 2
    with pytest.raises(ValueError):
        BlockPartition(u, (0b0011, 0b1100), (1, 1))  # special outside block


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
            assert built.f == definition_family(built.partition), (k, n)
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
    bp = built.partition
    want = set()
    for block in bp.blocks:
        want.update(s for s in submasks(block) if s != block)
    assert set(built.f.members) == want


def test_expected_size_values():
    assert expected_size(ConstructionParams(3, 8)) == 29
    assert expected_size(ConstructionParams(4, 9)) == 34
    assert expected_size(ConstructionParams(4, 7)) is None


def test_size_equals_block_sum_for_every_cell():
    """Blocks of sizes b_i give sum_i 2^(b_i + k - 3) - (2^(k-1) - 1)(k - 2)
    members, divisible or not; expected_size is that sum where it is set."""
    for k in range(3, 9):
        for n in range(2 * (k - 1), 25):
            p = ConstructionParams(k, n)
            sizes = make_partition(p).block_sizes()
            size = sum(1 << (b + k - 3) for b in sizes) - ((1 << (k - 1)) - 1) * (k - 2)
            assert len(build_family(p).f) == size, (k, n)
            assert expected_size(p) in (None, size), (k, n)


@pytest.mark.parametrize("k,n", [(3, 6), (3, 8), (4, 6), (4, 9), (5, 8), (6, 10)])
def test_three_part_count_decomposition(k, n):
    p = ConstructionParams(k, n)
    built = build_family(p)
    bp = built.partition
    specials = bp.specials_mask
    m = n // (k - 1)

    in_f2 = {
        x for x in built.f.members if any(piece == "F2" for piece, _ in construction_pieces(bp, x))
    }
    tops_removed = {
        block & ~(1 << (a - 1)) for block, a in zip(bp.blocks, bp.specials)
    }

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
        fbar = built.fbar
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
