"""Construction-independent generators and probes.

Exhaustive down-set enumeration at tiny n (the complement world of any
maximal family is a down-set, so down-sets are the whole search space), an
exact minimum-size oracle over it, seeded greedy saturation at medium n,
an exact recogniser of the cube families (cube_blocks, which reads only a
family's maximal members) and an aggregate size table. Only size_table
imports construction, so the greedy, the oracle and the recogniser never
load it.
The oracle and the greedy read cover numbers from the cover-level words
of setcore (level t holds the masks that at most t members cover, so level
1 is the down-closure), never from the verifier.
Two cover numbers, read off the levels by _arity_range, give the arities
at which a family is maximal, so one down-set walk per n, reading each
down-set off level 1, answers every k. An arity below 2 fails in setcore's
_require_k, as in the verifier.
The oracle's walk takes the least asked arity and skips, exactly, every
subtree of down-sets larger than the star's complement or not k-wise for
that arity, so the answer and its first achiever stay the same.
The greedy holds no member set: it checks its seed with one AND of level 1
and the reversed level k - 1, feeds its candidates (one shuffled run, or one
run per popcount layer) to one loop that grows the levels at each open
mask, and returns level 1.
"""

from __future__ import annotations

import random
from math import inf
from typing import TYPE_CHECKING, NamedTuple

from .setcore import (
    Family,
    SetMask,
    Universe,
    _cover_levels,
    _grow,
    _low_words,
    _record,
    _require_k,
    _reversed_word,
    _word_bits,
    complement_family,
    maximal_elements,
)

if TYPE_CHECKING:
    from typing import Iterator, Sequence

DOWNSET_MAX_N = 5
GREEDY_MAX_N = 20


@_record
class OracleResult(NamedTuple):
    """Exact minimum size of a maximal k-wise intersecting family over [n],
    with the number of minimum achievers and one achiever (direct world)."""

    k: int
    n: int
    f_k_n: int
    extremal_count: int
    sample_extremal: Family


def _arity_range(levels: Sequence[int], gaps: int, full: SetMask) -> tuple[float, float]:
    """(lo, hi): a family g (complement world) is maximal k-wise
    intersecting for exactly lo <= k < hi, either of which may be inf, given
    g's cover levels 0..n and gaps, the word of full ^ x over its
    non-members x. With c(T) the fewest members whose union contains T (inf
    when no level holds T), g is k-wise iff k < c(full), and a non-member x
    can be added iff c(full ^ x) >= k, so g is saturated iff k > c(full ^ x)
    for every non-member x."""
    hi = next((t for t, level in enumerate(levels) if level >> full & 1), inf)
    lo = 1 + next((t for t, level in enumerate(levels) if not gaps & ~level), inf)
    return lo, hi


def _downset_walk(n: int, kmin: int | None = None) -> Iterator[tuple[int, float, float]]:
    """Every down-set over [n] once, as (down-set word, lo, hi) with lo and
    hi its arity range, as in _arity_range.

    Antichains of tops are extended in lexicographic mask order, and a
    child differs from its parent by one new top m, added to the cover
    levels 0..n by _grow. A node's down-set is its level 1 (empty for no
    tops); it carries the reversed down-set, the complement of its gaps.

    Given kmin, the least arity asked, two exact cuts drop a child with
    its whole subtree, since every descendant keeps the child's tops and
    so its levels only grow: a down-set of more than 2^(n - 1) members
    (the star's complement is maximal for every k >= 2, so no larger one
    is a minimum), and a level min(kmin, n) that holds full (then
    c(full) <= kmin, and no asked arity is k-wise). Neither cut changes
    the order of the nodes that stay.
    """
    low = tuple(_low_words(n))
    size, full = 1 << n, (1 << n) - 1
    down = [_grow((1, 1), m, low)[1] for m in range(size)]  # the subsets of m
    rdown = [_reversed_word(d, size) for d in down]
    every = (1 << size) - 1
    # with no kmin, no down-set outgrows cap and no level meets dead
    cap, dead, t = (size, 0, n) if kmin is None else (size >> 1, 1 << full, min(kmin, n))
    # (tops, reversed down-set, cover levels 0..n, next candidate)
    stack = [(0, 0, (1,) * (n + 1), 0)]
    while stack:
        tops, r, levels, start = stack.pop()
        yield (levels[1] if tops else 0, *_arity_range(levels, every & ~r, full))
        children = []
        for m in range(start, size):
            # m exceeds every top, so only a top under m makes them comparable
            if down[m] & tops or (levels[1] | down[m]).bit_count() > cap:
                continue
            grown = _grow(levels, m, low)
            if grown[t] & dead:
                continue
            children.append((tops | 1 << m, r | rdown[m], grown, m + 1))
        stack.extend(reversed(children))


def enumerate_downsets(u: Universe) -> Iterator[Family]:
    """Yield every down-set over the universe exactly once.

    Down-sets correspond one-to-one to antichains of maximal elements;
    antichains are extended in lexicographic mask order. Dedekind growth
    (168 down-sets at n=4, 7581 at n=5) caps this at n <= 5.
    """
    if u.n > DOWNSET_MAX_N:
        raise ValueError(f"down-set enumeration needs n <= {DOWNSET_MAX_N}, got n={u.n}")
    for d, _, _ in _downset_walk(u.n):
        yield Family(u, _word_bits(d))


def _oracle_results(ks: Sequence[int], u: Universe) -> dict[int, OracleResult]:
    """Exact minimum for every arity in ks from one pass over the down-sets.
    Each k keeps its first smallest achiever in enumeration order."""
    _require_k(min(ks, default=2))
    if u.n > DOWNSET_MAX_N:
        raise ValueError(f"exhaustive oracle needs n <= {DOWNSET_MAX_N}, got n={u.n}")
    if not ks:
        return {}
    best: dict[int, int] = {}  # k -> down-set word of its first smallest achiever
    count = dict.fromkeys(ks, 0)
    for d, lo, hi in _downset_walk(u.n, min(ks)):
        size = d.bit_count()
        for k in count:  # each arity once, even if ks repeats it
            if not lo <= k < hi:
                continue
            if k not in best or size < best[k].bit_count():
                best[k], count[k] = d, 1
            elif size == best[k].bit_count():
                count[k] += 1
    # the complement of the star is maximal for every k, so best has each k
    return {
        k: OracleResult(
            k, u.n, best[k].bit_count(), count[k],
            complement_family(Family(u, _word_bits(best[k]))),
        )
        for k in count
    }


def oracle_min_size(k: int, u: Universe) -> OracleResult:
    """Exact minimum size of a maximal k-wise intersecting family over u,
    with its achiever count and first achiever. Every down-set is taken as
    a complement world and kept when k falls in its arity range."""
    return _oracle_results((k,), u)[k]


def greedy_saturate(g0: Family, k: int, order_seed: int, *, order: str = "random") -> Family:
    """Grow g0 (complement world) into a maximal family.

    Candidate masks are scanned in a seed-determined order ("random" is a
    seeded shuffle of all masks, "popcount" visits larger sets first with
    ties by mask value); each mask that no k - 1 members complete to the
    full set is added. A mask under a member always is, and changes no
    level; any other x is added iff full ^ x misses level min(k - 1, n), and
    grows the levels. Levels only grow, so one pass decides each mask, and
    the result is level 1: the down-closure of the seed and the grown masks.
    The seed is k-wise iff level 1 misses the reversed level k - 1.
    """
    u = g0.universe
    if u.n > GREEDY_MAX_N:
        raise ValueError(f"greedy saturation needs n <= {GREEDY_MAX_N}, got n={u.n}")
    _require_k(k)
    if order not in ("random", "popcount"):
        raise ValueError(f"unknown candidate order {order!r}")
    size, full = u.num_masks, u.full
    # c(T) > k - 1 exactly when T misses level min(k - 1, n), since a cover
    # never needs more than n members
    low = tuple(_low_words(u.n))
    levels = _cover_levels(g0, min(k - 1, u.n), low)
    # bit x of rev is set iff c(full ^ x) <= k - 1, an up-set, so level 1
    # (the seed's down-closure) meets rev iff some member is in it
    rev = _reversed_word(levels[-1], size)
    if levels[1] & rev:
        raise ValueError("seed family is not k-wise intersecting in the complement world")
    if order == "random":
        runs = [list(range(size))]
        random.Random(order_seed).shuffle(runs[0])
    else:
        runs = reversed(_popcount_layers(u.n))
    # levels 1 and k - 1 as bytes snapshots: one O(1) index per test
    nbytes = (size + 7) // 8
    one = levels[1].to_bytes(nbytes, "little")
    top = levels[-1].to_bytes(nbytes, "little")
    for run in runs:
        if order == "popcount":
            # one run per popcount layer, from the top: the layer's open
            # masks, in no level 1 and with full ^ x in no level k - 1, read
            # when the run starts (rev is None after a grow, so it is re-read
            # only then). Open masks only close, so the test below drops the
            # ones that an earlier grow in the run closed, and skips no other.
            if rev is None:
                rev = _reversed_word(levels[-1], size)
            run = _word_bits(run & ~(levels[1] | rev))
        for x in run:
            t = full ^ x
            if top[t >> 3] >> (t & 7) & 1 or one[x >> 3] >> (x & 7) & 1:
                continue
            levels, rev = _grow(levels, x, low), None
            one = levels[1].to_bytes(nbytes, "little")
            top = levels[-1].to_bytes(nbytes, "little")
    return Family(u, _word_bits(levels[1]))


def _popcount_layers(n: int) -> list[int]:
    """Words of the masks with exactly p set bits, p = 0 .. n: a shift by
    2^i moves each mask below 2^i to its copy with bit i, one layer up."""
    layers = [1]
    for i in range(n):
        layers = [a | b << (1 << i) for a, b in zip([*layers, 0], [0, *layers])]
    return layers


def cube_blocks(g: Family) -> tuple[SetMask, ...] | None:
    """The blocks, ordered by least element, when g (complement world) is
    the cube family Q(B_1, .., B_t): the empty set, every singleton and
    every proper subset of each block, the blocks pairwise disjoint with at
    least 3 elements each. None when g is any other family.

    Q's tops are the sets B - {b} of each block B, which meet within a
    block and miss those of every other, and the singletons outside every
    block. So the tops of two or more elements merge by intersection into
    the candidate blocks, and g's tops must be exactly the tops that Q of
    those blocks has. Each member lies under a top, so g then lies within
    Q, and equals it when the sizes agree. O(tops * n) past maximal_elements.
    """
    tops = maximal_elements(g).members
    blocks: list[SetMask] = []  # disjoint: each top merges the blocks it meets
    for t in tops:
        if t & (t - 1):
            for b in [b for b in blocks if b & t]:
                blocks.remove(b)
                t |= b
            blocks.append(t)
    bits = [1 << i for i in range(g.universe.n)]
    spans = sum(blocks)
    want = {b ^ bit for b in blocks for bit in bits if b & bit}
    want.update(bit for bit in bits if not spans & bit)
    size = 1 + len(bits) - spans.bit_count() + sum((1 << b.bit_count()) - 2 for b in blocks)
    if set(tops) != want or len(g) != size:
        return None
    return tuple(sorted(blocks, key=lambda b: b & -b))


def size_table(ks: Sequence[int], ns: Sequence[int]) -> list[dict]:
    """One row per (k, n): construction size, closed-form size and
    exhaustive minimum. Infeasible cells stay None; greedy sizes come from
    `kwise greedy`."""
    from .construction import ConstructionParams, build_family, expected_size

    oracle_ks = [k for k in ks if k >= 2]
    oracle = {
        n: _oracle_results(oracle_ks, Universe(n))
        for n in ns
        if oracle_ks and n <= DOWNSET_MAX_N
    }
    rows = []
    for k in ks:
        for n in ns:
            row: dict = {
                "k": k,
                "n": n,
                "size": None,
                "formula": None,
                "oracle": None,
                "greedy_min": None,  # always None: bench/workloads.py checks the 6-column header
            }
            if k >= 3 and n >= 2 * (k - 1):
                p = ConstructionParams(k, n)
                row["size"] = len(build_family(p).f)
                row["formula"] = expected_size(p)
            if k >= 2 and n in oracle:
                row["oracle"] = oracle[n][k].f_k_n
            rows.append(row)
    return rows
