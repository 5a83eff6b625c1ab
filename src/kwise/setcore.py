"""Bitmask subset-lattice primitives: universes, families, both cover engines.

A set over the ground set {1, .., n} is an n-bit mask with element i stored
in bit i - 1. Families are immutable, deduplicated, sorted mask collections.
The down-set test and the maximal elements are loops over the members and
their frozenset index, with no 2^n table, so they hold for every n <= 62.
Whole-lattice passes work on Python-int words over the 2^n masks, bit p
standing for mask p: _member_word packs masks into a word, _word_bits
lazily unpacks one, _spelled spells one as 0/1 bytes, _reversed_word
moves bit x to bit full ^ x, and _low_words gives LOW_i, the masks lacking
bit i, so that (word & LOW_i) << 2^i moves each such mask x to x | 2^i.
Both cover engines live here and read a family's maximal members.
CoverSearcher finds the first cover of one mask by few of them through a
branch-and-bound search that memoises only failed (target, budget) pairs.
The cover levels hold every mask's cover number at once: level t is the
word of the masks that at most t members cover, grown by _grow from each
maximal member.
CoverTable is a byte-per-mask view of levels 0..limit that no command or
library path builds and the package does not export; the benchmark's
tracer patches its names.
_record gives the NamedTuple types of verifier, search and construction
the equality of a frozen dataclass without loading dataclasses, and
_require_k is the arity check of the verifier and search; _arity_range,
which only search runs, lives there.
"""

from __future__ import annotations

from itertools import chain, compress
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from typing import Iterable, Iterator, Sequence

SetMask = int

ALGEBRA_MAX_N = 62
TABLE_MAX_N = 24
COVER_MAX_J = 8

_NONE = 255
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")
_NONZERO_BYTES = bytes([0, *[1] * 255])
_REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _record(cls):
    """Class decorator for the NamedTuple types of verifier, search and
    construction: instances equal only instances of the same class with
    equal fields, and hash with their class, as frozen dataclasses do. A bare
    NamedTuple would equal any tuple, so GapWitness(5) == (5,). _make, and
    so _replace, goes through the class's __new__, which may check fields."""

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not __eq__(self, other)

    def __hash__(self):
        return hash((type(self), tuple.__hash__(self)))

    cls.__eq__, cls.__ne__, cls.__hash__ = __eq__, __ne__, __hash__
    cls._make = classmethod(lambda c, fields: c(*fields))
    return cls


def _require_k(k: int) -> None:
    if k < 2:
        raise ValueError(f"arity k must be >= 2, got {k}")


class Universe:
    """Ground set {1, .., n}, n <= 62; element i occupies mask bit i - 1."""

    __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        if not 1 <= n <= ALGEBRA_MAX_N:
            raise ValueError(f"universe size must be in 1..{ALGEBRA_MAX_N}, got {n}")
        self.n = n

    @property
    def full(self) -> SetMask:
        return (1 << self.n) - 1

    @property
    def num_masks(self) -> int:
        return 1 << self.n

    def check_mask(self, m: SetMask) -> SetMask:
        if not 0 <= m <= self.full:
            raise ValueError(f"mask {m:#x} does not fit a universe of size {self.n}")
        return m

    def require_table(self) -> None:
        """Reject universes too large for 2^n table allocation."""
        if self.n > TABLE_MAX_N:
            raise ValueError(
                f"universe too large: n={self.n} exceeds the 2^n table limit {TABLE_MAX_N}"
            )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Universe) and other.n == self.n

    def __hash__(self) -> int:
        return hash(("Universe", self.n))

    def __repr__(self) -> str:
        return f"Universe({self.n})"


def elements_of(m: SetMask) -> tuple[int, ...]:
    """Ascending 1-based elements of a mask."""
    return tuple(i + 1 for i in range(m.bit_length()) if m >> i & 1)


def submasks(m: SetMask) -> list[SetMask]:
    """Every subset of m in ascending order, 0 and m included: each bit of
    m, lowest first, doubles the list with copies that hold it."""
    subs = [0]
    while m:
        bit = m & -m
        subs += [s | bit for s in subs]
        m ^= bit
    return subs


class Family:
    """Immutable, deduplicated family of masks over a fixed universe.

    Members are kept strictly sorted; membership tests are O(1) through a
    frozenset index.
    """

    __slots__ = ("universe", "members", "_index")

    def __init__(self, universe: Universe, masks: Iterable[SetMask] = ()) -> None:
        index = frozenset(masks)
        members = tuple(sorted(index))
        if members:
            universe.check_mask(members[0])
            universe.check_mask(members[-1])
        self.universe = universe
        self.members = members
        self._index = index

    def __contains__(self, m: object) -> bool:
        return m in self._index

    def __iter__(self) -> Iterator[SetMask]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Family)
            and other.universe == self.universe
            and other.members == self.members
        )

    def __hash__(self) -> int:
        return hash((self.universe, self.members))

    def __repr__(self) -> str:
        return f"Family(n={self.universe.n}, size={len(self.members)})"


def complement_family(f: Family) -> Family:
    """The family of complements; involutive and size preserving."""
    full = f.universe.full
    return Family(f.universe, (full ^ m for m in f.members))


def is_downset(f: Family) -> bool:
    """True iff every subset of every member is a member.

    Removing any single element of a member must land in the family; by
    induction this is equivalent to full downward closure. Each member looks
    its one-bit-smaller children up in the frozenset index, so no 2^n table
    is needed and every n <= 62 is allowed.
    """
    index = f._index
    for m in f.members:
        rest = m
        while rest:
            bit = rest & -rest
            if m ^ bit not in index:
                return False
            rest ^= bit
    return True


def maximal_elements(f: Family) -> Family:
    """Members not strictly contained in another member (an antichain).

    A member with a one-bit-larger member is not maximal. The others are
    taken level by level from the largest popcount down, and each is kept
    unless a top kept on a higher level contains it, so the result is exact
    for any family, down-set or not, at any n <= 62.
    """
    index, full = f._index, f.universe.full
    levels: dict[int, list[SetMask]] = {}
    for m in f.members:
        rest = full ^ m
        while rest:
            bit = rest & -rest
            if m | bit in index:
                break
            rest ^= bit
        else:
            levels.setdefault(m.bit_count(), []).append(m)
    tops: list[SetMask] = []
    for level in sorted(levels, reverse=True):
        kept = []
        for m in levels[level]:
            for t in tops:
                if m | t == t:
                    break
            else:
                kept.append(m)
        tops += kept
    return Family(f.universe, tops)


def _low_words(n: int) -> Iterator[int]:
    """LOW[i] for i = 0 .. n - 1: the word of the masks lacking bit i, 2^i
    ones then 2^i zeros repeated, built by doubling one block. Words are
    2^n bits long, so they are yielded one at a time."""
    for i in range(n):
        x, length = (1 << (1 << i)) - 1, 2 << i
        while length < 1 << n:
            x, length = x | x << length, length << 1
        yield x


def _member_word(masks: Iterable[SetMask], n: int) -> int:
    """The word over the 2^n masks with bit p set for each p in masks."""
    taken = bytearray(((1 << n) + 7) // 8)
    for p in masks:
        taken[p >> 3] |= 1 << (p & 7)
    return int.from_bytes(taken, "little")


def _word_bits(word: int) -> Iterator[SetMask]:
    """Ascending set-bit positions of a nonnegative word, lazily. Runs of
    zero bytes are skipped and each other run is spelled and compressed, all
    at C speed, so sparse and dense 2^n-bit words both cost one scan."""
    data = word.to_bytes((word.bit_length() + 7) // 8, "little")
    return chain.from_iterable(
        compress(range(a << 3, b << 3),
                 _spelled(int.from_bytes(data[a:b], "little"), (b - a) << 3))
        for a, b in _nonzero_runs(data)
    )


def _nonzero_runs(data: bytes) -> Iterator[tuple[int, int]]:
    """(start, end) of each maximal run of nonzero bytes, found by memchr
    scans (bytes.find) of a 0/1 copy with a zero byte appended."""
    flags = data.translate(_NONZERO_BYTES) + b"\0"
    end = 0
    while (start := flags.find(1, end)) >= 0:
        end = flags.find(0, start)
        yield start, end


def _spelled(word: int, size: int) -> bytes:
    """One 0/1 byte per mask p < size, byte p spelling bit p of word."""
    return format(word, f"0{size}b")[::-1].encode().translate(_BIT_BYTES)


def _reversed_word(word: int, size: int) -> int:
    """The size-bit word with bit size - 1 - p set for each bit p of word;
    over the 2^n masks, bit x moves to bit full ^ x."""
    flipped = word.to_bytes(-(-size // 8), "little").translate(_REVERSED_BYTES)
    return int.from_bytes(flipped, "big") >> -size % 8


def _grow(levels: Sequence[int], x: SetMask, low: Sequence[int]) -> tuple[int, ...]:
    """Cover levels after adding mask x. Level t holds the masks T with
    c(T) <= t, c(T) being the fewest members whose union contains T, so
    with no members every level is 1. Level t gains every T | s with T in
    level t - 1 and s a subset of x: one shift-and-mask per bit of x, as
    level t - 1 is down-closed."""
    shifts = [(low[i], 1 << i) for i in range(x.bit_length()) if x >> i & 1]
    grown = [levels[0]]
    for t in range(1, len(levels)):
        spread = levels[t - 1]
        for lw, b in shifts:
            spread |= (spread & lw) << b
        grown.append(levels[t] | spread)
    return tuple(grown)


def _cover_levels(f: Family, depth: int, low: Sequence[int]) -> tuple[int, ...]:
    """Cover levels 0..depth of a family; low is tuple(_low_words(n)). Only
    the maximal members change a level, so only they are grown."""
    levels = (1,) * (depth + 1)
    for x in maximal_elements(f).members:
        levels = _grow(levels, x, low)
    return levels


class CoverTable:
    """Covering numbers of every mask up to a limit, held as the cover
    levels 0..limit of the family's maximal members.

    covering(m) is the least j <= limit such that some j members (repeats
    allowed) union to a superset of m: 0 for the empty mask, None beyond
    limit. No command or library path builds a table; the benchmark's
    tracer patches its names.
    """

    NONE = _NONE

    __slots__ = ("universe", "limit", "levels", "_sup")

    def __init__(self, universe: Universe, limit: int, levels: Sequence[int]) -> None:
        self.universe = universe
        self.limit = limit
        self.levels = tuple(levels)
        self._sup: bytes | None = None

    @property
    def sup(self) -> bytes:
        """One byte per mask: its covering number, NONE beyond limit.

        Each level is spelled as one 0/1 byte per mask, and the spellings
        add as integers with no carry (at most COVER_MAX_J + 1 levels). A
        mask in c of the nested levels has covering number limit + 1 - c.
        """
        if self._sup is None:
            size = self.universe.num_masks
            present = sum(int.from_bytes(_spelled(level, size), "little") for level in self.levels)
            number = bytes([_NONE, *range(self.limit, -1, -1)]).ljust(256, b"\0")
            self._sup = present.to_bytes(size, "little").translate(number)
        return self._sup

    def covering(self, m: SetMask) -> int | None:
        """Least j such that some j members union to a superset of m."""
        v = self.sup[self.universe.check_mask(m)]
        return None if v == _NONE else v

    def can_cover(self, target: SetMask, j: int) -> bool:
        v = self.covering(target)
        return v is not None and v <= j


def build_cover_table(f: Family, j_max: int) -> CoverTable:
    """Cover table of a nonempty family; requires n <= 24 and j_max <= 8."""
    u = f.universe
    u.require_table()
    if not f.members:
        raise ValueError("cover table requires a nonempty family")
    ind = bytearray(u.num_masks)
    for m in f.members:
        ind[m] = 1
    return cover_table_from_indicator(ind, u, j_max)


def cover_table_from_indicator(ind: Sequence[int], u: Universe, j_max: int) -> CoverTable:
    """Cover table from a 0/1 sequence over all 2^n masks (may be all 0)."""
    u.require_table()
    if len(ind) != u.num_masks:
        raise ValueError("indicator length must be 2^n")
    if not 1 <= j_max <= COVER_MAX_J:
        raise ValueError(f"j_max must be in 1..{COVER_MAX_J}, got {j_max}")
    f = Family(u, compress(range(len(ind)), ind))
    levels = _cover_levels(f, j_max, tuple(_low_words(u.n)))
    return CoverTable(u, j_max, levels)


class CoverSearcher:
    """Branch-and-bound cover search over a family's maximal members.

    find(target, budget) returns at most `budget` maximal members whose
    union contains target (a tuple, empty for an empty target), or None when
    no such selection exists. At each step only members containing the
    lowest uncovered bit can help; they are tried largest first, and the
    first cover in that order is returned. Only failures are memoised, as
    the largest budget that failed per target; coverability is monotone in
    the budget, so each answer depends on the arguments alone.
    """

    __slots__ = ("_by_bit", "_no")

    def __init__(self, f: Family) -> None:
        tops = sorted(maximal_elements(f).members, key=lambda t: (-t.bit_count(), t))
        self._by_bit = tuple(
            tuple(t for t in tops if t >> b & 1) for b in range(f.universe.n)
        )
        self._no: dict[SetMask, int] = {}

    def find(self, target: SetMask, budget: int) -> tuple[SetMask, ...] | None:
        if target == 0:
            return ()
        if budget <= 0 or self._no.get(target, 0) >= budget:
            return None
        low = (target & -target).bit_length() - 1
        for cand in self._by_bit[low]:
            rest = self.find(target & ~cand, budget - 1)
            if rest is not None:
                return (cand, *rest)
        self._no[target] = budget
        return None
