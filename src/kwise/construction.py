"""The block construction of small maximal k-wise intersecting families.

The ground set splits into k - 1 near-equal contiguous blocks B_i, held as
a tuple of block masks (the shape search.cube_blocks returns), each with a
designated special element a_i, its least element. The working family F
lives in the complement picture: it is the down-set of construction_tops,
its n maximal members (the proof is there), and its complement family is
k-wise intersecting and saturated. At k = 3 the tops are the sets B_i - b,
so F is the cube family of its blocks of 3 or more elements.

ConstructionParams is a NamedTuple that checks its fields in __new__; it
and BuiltFamily compare as frozen dataclasses do (setcore._record), so the
module loads no dataclasses.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

from .setcore import Family, SetMask, Universe, _record, submasks


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


def make_partition(p: ConstructionParams) -> tuple[SetMask, ...]:
    """The k - 1 contiguous near-equal blocks, larger blocks first, so
    ascending by least element; each block's special is its least element,
    b & -b."""
    q, r = divmod(p.n, p.num_blocks)
    blocks: list[SetMask] = []
    start = 0
    for i in range(p.num_blocks):
        s = q + (i < r)
        blocks.append(((1 << s) - 1) << start)
        start += s
    return tuple(blocks)


def construction_tops(p: ConstructionParams) -> Family:
    """The n maximal members of the construction family F (complement world).

    Block B_i has special a_i; S is the set of specials and E_i = S - {a_i,
    a_(i-1)}, i - 1 cyclic. F is the union of F1(i), the proper subsets of
    B_i, and F2(i), the sets X | Y with X a subset of B_i other than B_i and
    B_i - a_i, and Y a subset of E_i. Block i gives the top B_i - a_i and,
    for each b in B_i - a_i, the top (B_i - b) | E_i:
    - each top is in F: B_i - a_i is in F1(i), and (B_i - b) | E_i is in
      F2(i), since B_i - b is neither B_i nor B_i - a_i;
    - each member of F1(i) or F2(i) lies under a top of block i, as its
      part in B_i misses a_i or some b != a_i (an X of F2(i) misses one);
    - each subset of (B_i - b) | E_i is in F1(i) or F2(i), as b != a_i.
    So F is their down-closure. They are pairwise incomparable, so they are
    F's maximal members: block i's tops meet B_i in distinct sets of size
    |B_i| - 1, and each holds a non-special of B_i, which no other block's
    top holds, or is S - {a_(i-1)}, while block j's tops all lack a_(j-1).
    """
    blocks = make_partition(p)
    specials = [b & -b for b in blocks]
    all_specials = sum(specials)
    tops: list[SetMask] = []
    for block, own, prev in zip(blocks, specials, specials[-1:] + specials):
        rest = block & ~own
        extension = all_specials & ~(own | prev)
        tops.append(rest)
        tops.extend((block & ~(1 << i)) | extension for i in range(p.n) if rest >> i & 1)
    return Family(Universe(p.n), tops)


@_record
class BuiltFamily(NamedTuple):
    f: Family  # complement world
    blocks: tuple[SetMask, ...]  # make_partition's block masks


def build_family(p: ConstructionParams) -> BuiltFamily:
    """The down-closure of construction_tops, with its blocks."""
    f = Family(Universe(p.n), chain.from_iterable(map(submasks, construction_tops(p).members)))
    return BuiltFamily(f, make_partition(p))


def expected_size(p: ConstructionParams) -> int:
    """|F| = sum_i 2^(|B_i| + k - 3) - (2^(k-1) - 1)(k - 2) over the blocks,
    which is (k-1) 2^(n/(k-1) + k - 3) - (2^(k-1) - 1)(k - 2) when k - 1
    divides n. With S, a_i and E_i (|E_i| = k - 3) as in construction_tops:
    - every top's non-special elements lie in one block, so a member's do
      too;
    - block i gives 2^(|B_i| + k - 3) - 2^(k-1) + 1 members that meet
      B_i - a_i: the sets X | Y, with X a subset of B_i that meets B_i - a_i
      but does not hold all of it (a_i in or out) and Y a subset of E_i,
      plus B_i - a_i itself;
    - the subsets of S other than S itself add 2^(k-1) - 1: S - a_(i-1) lies
      under block i's tops (B_i - b) | E_i, and no top holds S.
    """
    k = p.k
    powers = sum(1 << (b.bit_count() + k - 3) for b in make_partition(p))
    return powers - ((1 << (k - 1)) - 1) * (k - 2)
