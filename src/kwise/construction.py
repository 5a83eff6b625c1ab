"""The block construction of small maximal k-wise intersecting families.

The ground set splits into k - 1 near-equal contiguous blocks, each with a
designated special element (its minimum). The working family F lives in the
complement picture and collects, per block, every proper subset of the
block, plus block subsets (two exclusions) extended by specials of other
blocks except the cyclic predecessor's. The complement family of F is then
k-wise intersecting and saturated.

ConstructionParams and BlockPartition are NamedTuples that check their
fields in __new__; they and BuiltFamily compare as frozen dataclasses do
(setcore._record), so the module loads no dataclasses.
"""

from __future__ import annotations

from typing import NamedTuple

from .setcore import Family, SetMask, Universe, _record, complement_family, submasks


class _Params(NamedTuple):
    k: int
    n: int


@_record
class ConstructionParams(_Params):
    """Arity k >= 3 over a universe of size n >= 2(k-1)."""

    __slots__ = ()

    def __new__(cls, k: int, n: int) -> ConstructionParams:
        if k < 3:
            raise ValueError(f"construction requires k >= 3, got k={k}")
        if n < 2 * (k - 1):
            raise ValueError(f"construction requires n >= 2(k-1) = {2 * (k - 1)}, got n={n}")
        return super().__new__(cls, k, n)

    @property
    def num_blocks(self) -> int:
        return self.k - 1


class _Partition(NamedTuple):
    universe: Universe
    blocks: tuple[SetMask, ...]
    specials: tuple[int, ...]


@_record
class BlockPartition(_Partition):
    """Disjoint blocks covering the universe (sizes within 1 of each other),
    one special element per block.

    Block indices are 1-based and cyclic: the predecessor of block 1 is the
    last block.
    """

    __slots__ = ()

    def __new__(
        cls, universe: Universe, blocks: tuple[SetMask, ...], specials: tuple[int, ...]
    ) -> BlockPartition:
        if not blocks or len(blocks) != len(specials):
            raise ValueError("exactly one special element per block required")
        union = 0
        for b in blocks:
            universe.check_mask(b)
            if b == 0:
                raise ValueError("blocks must be nonempty")
            if union & b:
                raise ValueError("blocks must be pairwise disjoint")
            union |= b
        if union != universe.full:
            raise ValueError("blocks must cover the whole universe")
        sizes = [b.bit_count() for b in blocks]
        if max(sizes) - min(sizes) > 1:
            raise ValueError("block sizes may differ by at most 1")
        for b, a in zip(blocks, specials):
            if not 1 <= a <= universe.n or not b >> (a - 1) & 1:
                raise ValueError(f"special element {a} outside its block")
        return super().__new__(cls, universe, blocks, specials)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def specials_mask(self) -> SetMask:
        m = 0
        for a in self.specials:
            m |= 1 << (a - 1)
        return m

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(b.bit_count() for b in self.blocks)


def make_partition(p: ConstructionParams) -> BlockPartition:
    """Contiguous near-equal blocks, larger blocks first; each special is
    the smallest element of its block."""
    u = Universe(p.n)
    q, r = divmod(p.n, p.num_blocks)
    sizes = [q + 1] * r + [q] * (p.num_blocks - r)
    blocks: list[SetMask] = []
    specials: list[int] = []
    start = 1
    for s in sizes:
        blocks.append(((1 << s) - 1) << (start - 1))
        specials.append(start)
        start += s
    return BlockPartition(u, tuple(blocks), tuple(specials))


def _check_block_index(bp: BlockPartition, i: int) -> None:
    if not 1 <= i <= bp.num_blocks:
        raise IndexError(f"block index {i} outside 1..{bp.num_blocks}")


def build_f1(bp: BlockPartition, i: int) -> Family:
    """Every proper subset of block i, the empty set included."""
    _check_block_index(bp, i)
    block = bp.blocks[i - 1]
    return Family(bp.universe, (s for s in submasks(block) if s != block))


def build_f2(bp: BlockPartition, i: int) -> Family:
    """Subsets of block i (minus the block itself and the block without its
    special) extended by any specials except block i's own and its cyclic
    predecessor's."""
    _check_block_index(bp, i)
    block = bp.blocks[i - 1]
    own = 1 << (bp.specials[i - 1] - 1)
    prev = 1 << (bp.specials[i - 2] - 1)
    extension = bp.specials_mask & ~(own | prev)
    skip = (block, block & ~own)
    return Family(
        bp.universe,
        (x | y for x in submasks(block) if x not in skip for y in submasks(extension)),
    )


@_record
class BuiltFamily(NamedTuple):
    f: Family  # complement world
    fbar: Family  # direct world: the maximal k-wise intersecting family
    partition: BlockPartition


def build_family(p: ConstructionParams) -> BuiltFamily:
    """Deduplicated union of every per-block piece, plus its complement."""
    bp = make_partition(p)
    masks: set[SetMask] = set()
    for i in range(1, bp.num_blocks + 1):
        masks.update(build_f1(bp, i).members)
        masks.update(build_f2(bp, i).members)
    f = Family(bp.universe, masks)
    return BuiltFamily(f, complement_family(f), bp)


def expected_size(p: ConstructionParams) -> int | None:
    """Closed-form size of the construction family, or None when k-1 does
    not divide n (the closed form only holds in the divisible case)."""
    blocks = p.num_blocks
    if p.n % blocks:
        return None
    return blocks * (1 << (p.n // blocks + p.k - 3)) - ((1 << (p.k - 1)) - 1) * (p.k - 2)
