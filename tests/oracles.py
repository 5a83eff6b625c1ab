"""Brute-force reference oracles, deliberately independent of the library's
cover levels and search machinery, the numpy lattice folds that the
modular-count tests use, scan_greedy, the one-candidate-at-a-time
greedy that the level-word greedy replaced, and maximal_arity_range, one
family's arity range read off its own cover levels, which the oracle's
down-set walk replaced. Also the fixtures mask_of, make_star and
cube_family, random_family and the hypothesis strategy families, closure,
the down-closure read off cover level 1, and definition_family, the block
construction read off the definition of its pieces."""

import random
from itertools import combinations, combinations_with_replacement

import numpy as np
from hypothesis import strategies as st

from kwise.search import _arity_range
from kwise.setcore import (
    Family,
    Universe,
    _cover_levels,
    _grow,
    _low_words,
    _member_word,
    _reversed_word,
    _word_bits,
    maximal_elements,
    submasks,
)


def mask_of(elements, u):
    """Mask of a collection of 1-based elements."""
    m = 0
    for e in elements:
        if not 1 <= e <= u.n:
            raise ValueError(f"element {e} outside universe 1..{u.n}")
        m |= 1 << (e - 1)
    return m


def construction_pieces(blocks, m):
    """The pieces of the block construction that hold mask m, read off the
    definition: ("F1", i) when m is a proper subset of block i, and ("F2",
    i) when m is X | Y with X a subset of block i other than the block and
    the block less its special, and Y a subset of the specials of every
    block but i and its cyclic predecessor (blocks 1-based). Each block's
    special is its least element."""
    specials = [b & -b for b in blocks]
    pieces = []
    for i in range(1, len(blocks) + 1):
        block = blocks[i - 1]
        own = specials[i - 1]
        prev = specials[i - 2]
        extension = sum(specials) & ~(own | prev)
        if m | block == block and m != block:
            pieces.append(("F1", i))
        x = m & block
        if not m & ~(block | extension) and x not in (block, block & ~own):
            pieces.append(("F2", i))
    return pieces


def definition_family(blocks, n):
    """The construction family F over [n], the union of every F1(i) and
    F2(i), by testing each of the 2^n masks against the definition."""
    return Family(Universe(n), (m for m in range(1 << n) if construction_pieces(blocks, m)))


def random_family(rng, n, max_members=12):
    """Up to max_members masks over [n] drawn from rng, repeats allowed."""
    size = 1 << n
    return Family(Universe(n), (rng.randrange(size) for _ in range(rng.randint(0, max_members))))


@st.composite
def families(draw, max_n=8, max_members=14):
    """Hypothesis strategy: a family of at most max_members masks over [n],
    1 <= n <= max_n."""
    n = draw(st.integers(1, max_n))
    masks = draw(st.frozensets(st.integers(0, (1 << n) - 1), max_size=max_members))
    return Family(Universe(n), masks)


def make_star(u):
    """All 2^(n-1) subsets containing element 1."""
    return Family(u, ((m << 1) | 1 for m in range(1 << (u.n - 1))))


def cube_family(n, blocks):
    """The cube family Q(blocks) over [n]: the empty set, every singleton and
    every proper subset of each block."""
    masks = {0, *(1 << i for i in range(n))}
    for b in blocks:
        masks.update(s for s in submasks(b) if s != b)
    return Family(Universe(n), masks)


def closure(f):
    """Smallest down-set containing f: cover level 1, the masks under some
    member, less the empty set that level 1 holds when f has no members."""
    level = _cover_levels(f, 1, tuple(_low_words(f.universe.n)))[1]
    return Family(f.universe, _word_bits(level) if f.members else ())


def maximal_arity_range(g: Family) -> tuple[float, float]:
    """The arities k for which g (complement world, a down-set or not) is
    a maximal k-wise intersecting family: exactly lo <= k < hi. Either may
    be inf.

    Both halves come from c(T), the fewest members of g whose union
    contains T (inf when none does): g is k-wise intersecting iff k < c(full),
    and a non-member x can be added iff c(full ^ x) >= k, so g is saturated
    iff k > c(full ^ x) for every non-member x. The cover levels 0..n (a
    cover never needs more than n members) grow from the maximal members
    alone, as in the oracle's down-set walk.
    """
    u = g.universe
    n, size = u.n, u.num_masks
    levels = _cover_levels(g, n, tuple(_low_words(n)))
    # the reversed member word sets bit full ^ x for each member x
    gaps = ~_reversed_word(_member_word(g.members, n), size) & ((1 << size) - 1)
    lo, hi = _arity_range(levels, gaps, u.full)
    return float(lo), float(hi)


def naive_min_cover(members, n, j_max):
    """Least-members-to-union table by explicit union enumeration: level j
    holds every union of at most j members."""
    size = 1 << n
    out = np.full(size, 255, dtype=np.uint8)
    out[0] = 0
    if not members:
        return out
    mem = np.unique(np.asarray(sorted(members), dtype=np.int64))
    fresh = mem[out[mem] == 255]
    out[fresh] = 1
    current = mem
    for j in range(2, j_max + 1):
        nxt = np.unique(
            np.concatenate([current, (current[:, None] | mem[None, :]).ravel()])
        )
        fresh = nxt[out[nxt] == 255]
        out[fresh] = j
        current = nxt
    return out


def superset_min(table):
    """sup[m] = min(table[s] for s >= m): the covering number of every mask
    from an exact-union table such as naive_min_cover's."""
    return fold_supersets(table.copy(), np.minimum)


def fold_subsets(a, op):
    """In place over all 2^n masks, for each bit, a[m] = op(a[m], a[m - bit])
    where m has that bit. np.add gives subset sums (the zeta transform),
    np.subtract undoes them (Moebius inversion). Returns a."""
    for i in range(a.size.bit_length() - 1):
        v = a.reshape(-1, 2, 1 << i)
        op(v[:, 1, :], v[:, 0, :], out=v[:, 1, :])
    return a


def fold_supersets(a, op):
    """In place, for each bit, a[m] = op(a[m], a[m + bit]) where m lacks the
    bit: np.logical_or turns an indicator into its down-closure, np.minimum
    gives the superset-min. Returns a."""
    for i in range(a.size.bit_length() - 1):
        v = a.reshape(-1, 2, 1 << i)
        op(v[:, 0, :], v[:, 1, :], out=v[:, 0, :])
    return a


def moebius_mod(a, p):
    """Moebius inversion of values in [0, 2^31), reduced mod p once at the
    end. The n plain subtractions move a value by at most 2^n * 2^31 <= 2^55
    for n <= 24, so the int64 intermediates cannot overflow."""
    fold_subsets(a, np.subtract)
    a %= p
    return a


def brute_kwise_ok(members, n, k):
    """Definition-literal check: no k members (repetition allowed) may
    union to the full set."""
    full = (1 << n) - 1
    for combo in combinations_with_replacement(members, k):
        u = 0
        for m in combo:
            u |= m
        if u == full:
            return False
    return True


def completable(members, x, n, k):
    """Can at most k-1 members (possibly zero) union with x to the full
    set. Distinct combinations suffice: a multiset union equals the union
    of its support."""
    full = (1 << n) - 1
    if x == full:
        return True
    for j in range(1, k):
        for combo in combinations(members, j):
            u = x
            for m in combo:
                u |= m
            if u == full:
                return True
    return False


def brute_first_unsaturated(members, n, k):
    """First mask (ascending) that could be added without creating a
    k-cover, or None when the family is saturated."""
    memberset = set(members)
    for x in range(1 << n):
        if x in memberset:
            continue
        if not completable(members, x, n, k):
            return x
    return None


def brute_downset_indicators(n):
    """All down-set families over [n], filtering every indicator vector of
    the powerset for downward closure."""
    size = 1 << n
    out = []
    for ind in range(1 << size):
        members = [m for m in range(size) if ind >> m & 1]
        memberset = set(members)
        ok = True
        for m in members:
            rest = m
            while rest:
                bit = rest & -rest
                if (m ^ bit) not in memberset:
                    ok = False
                    break
                rest ^= bit
            if not ok:
                break
        if ok:
            out.append(frozenset(memberset))
    return out


def naive_is_downset(members):
    """Every subset of every member is a member, enumerating all subsets."""
    memberset = set(members)
    for m in members:
        s = m
        while s:
            s = (s - 1) & m
            if s not in memberset:
                return False
    return True


def naive_maximal_elements(members):
    """Ascending members that no other member strictly contains, by
    comparing every pair."""
    return sorted(
        m for m in set(members) if not any(m != o and m | o == o for o in members)
    )


def lex_antichain_downsets(u):
    """Every down-set over u once, as the set-based closure of each antichain
    of tops (the union of their submasks), antichains extended in
    lexicographic mask order."""

    def extend(tops, start):
        yield Family(u, (s for t in tops for s in submasks(t)))
        for m in range(start, u.num_masks):
            if all(m | t not in (m, t) for t in tops):
                tops.append(m)
                yield from extend(tops, m + 1)
                tops.pop()

    yield from extend([], 0)


def scan_greedy(g0, k, order_seed, order):
    """Members of the greedy result by a scan that tests every candidate in
    turn against bytes snapshots of cover levels 1 and min(k - 1, n),
    keeping a member set. It shares the cover levels and maximal_elements
    with the library, both checked against brute force elsewhere, and
    serves as a reference where the brute-force greedy is out of reach."""
    n, full = g0.universe.n, g0.universe.full
    size, nbytes = 1 << n, ((1 << n) + 7) // 8
    low = tuple(_low_words(n))
    tops = maximal_elements(g0).members
    levels = _cover_levels(g0, min(k - 1, n), low)
    one = levels[1].to_bytes(nbytes, "little")
    top = levels[-1].to_bytes(nbytes, "little")
    if any(top[(full ^ x) >> 3] >> ((full ^ x) & 7) & 1 for x in tops):
        raise ValueError("seed family is not k-wise intersecting in the complement world")
    cand = list(range(size))
    if order == "random":
        random.Random(order_seed).shuffle(cand)
    else:
        cand.sort(key=lambda m: (-m.bit_count(), m))
    members = set(g0.members)
    for x in cand:
        t = full ^ x
        if top[t >> 3] >> (t & 7) & 1 or x in members:
            continue
        members.add(x)
        if not one[x >> 3] >> (x & 7) & 1:
            levels = _grow(levels, x, low)
            one = levels[1].to_bytes(nbytes, "little")
            top = levels[-1].to_bytes(nbytes, "little")
    return members
