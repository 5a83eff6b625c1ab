"""Witness-producing verification of the k-wise property and maximality.

Everything runs in the complement picture: a family is k-wise intersecting
exactly when no k members of its complement family union to the full ground
set, and maximal exactly when additionally every non-member mask X admits
at most k - 1 members whose union with X is everything.

Every verdict is exact. The k-wise property is decided by one branch-and-
bound query over maximal elements. Saturation confirms, by the same search
and in ascending order, only the border: the non-members x all of whose
one-bit-smaller subsets x ^ b are members. The border suffices because a
target only grows as its mask shrinks: if x fails, full ^ (x ^ b) contains
full ^ x, so a non-member x ^ b < x fails too, and the first failing mask
is a border mask. Witnesses re-verify without the searcher: a cover by
plain mask arithmetic, a gap by the cover levels of setcore.
"""

from __future__ import annotations

from typing import NamedTuple

from .setcore import (
    CoverSearcher,
    Family,
    SetMask,
    _cover_levels,
    _low_words,
    _member_word,
    _record,
    _require_k,
    _word_bits,
    build_cover_table,  # noqa: F401  bench/tracer.py patches this binding
    complement_family,
)


@_record
class CoverWitness(NamedTuple):
    """At most k members whose union is the full ground set."""

    masks: tuple[SetMask, ...]


@_record
class GapWitness(NamedTuple):
    """A non-member mask that no <= k-1 members complete to the full set,
    so it could be added and the family was not maximal."""

    mask: SetMask


@_record
class Verdict(NamedTuple):
    ok: bool
    witness: CoverWitness | GapWitness | None = None
    reason: str | None = None  # "not_kwise" or "not_saturated"
    complement_downset: bool | None = None


def check_kwise(g: Family, k: int) -> Verdict:
    """No multiset of <= k members of g may union to the full ground set,
    decided by one search over maximal elements."""
    _require_k(k)
    return _kwise(g, k, CoverSearcher(g))


def _kwise(g: Family, k: int, searcher: CoverSearcher) -> Verdict:
    found = searcher.find(g.universe.full, k)
    if found is None:
        return Verdict(True)
    return Verdict(False, CoverWitness(found), reason="not_kwise")


def _border(g: Family) -> tuple[list[SetMask], bool]:
    """The border and whether g is a down-set, from one pass over the
    member word (bit p set for each member p).

    Per bit i, the word LOW_i | member << 2^i holds the masks x that lack
    bit i or whose x ^ 2^i is a member; their intersection over i holds the
    masks all of whose one-bit-smaller subsets are members. g is a down-set
    iff every member is in it, and the border is its non-members, listed in
    ascending order: the minimal non-members, 0 included when 0 is not a
    member. The words have 2^n bits, so n must be at most TABLE_MAX_N.
    """
    g.universe.require_table()
    n = g.universe.n
    member = _member_word(g.members, n)
    closed = (1 << g.universe.num_masks) - 1
    for i, low in enumerate(_low_words(n)):
        closed &= low | member << (1 << i)
    return list(_word_bits(closed & ~member)), (closed & member) == member


def check_saturated(g: Family, k: int) -> Verdict:
    """Every non-member mask must admit <= k-1 members completing it to the
    full set.

    Border masks are confirmed by search in ascending order and the verdict
    carries the first failure: a mask that could be added without breaking
    the k-wise property.
    """
    _require_k(k)
    return _saturated(g, k, CoverSearcher(g), _border(g)[0])


def _saturated(g: Family, k: int, searcher: CoverSearcher, border: list[SetMask]) -> Verdict:
    u = g.universe
    # a cover never needs more than n members, so larger budgets decide alike
    j = min(k - 1, u.n)
    for x in border:
        if searcher.find(u.full ^ x, j) is None:
            return Verdict(False, GapWitness(x), reason="not_saturated")
    return Verdict(True)


def is_maximal_kwise(f: Family, k: int, world: str = "direct") -> Verdict:
    """k-wise intersecting and saturated.

    The verdict also reports whether the complement-world family is a
    down-set (maximal families always are); this is informational and does
    not enter ok.
    """
    _require_k(k)
    if world not in ("direct", "complement"):
        raise ValueError(f"world must be 'direct' or 'complement', got {world!r}")
    g = complement_family(f) if world == "direct" else f
    border, downset = _border(g)
    # one searcher, and so one failure memo, serves both checks
    searcher = CoverSearcher(g)
    kw = _kwise(g, k, searcher)
    if not kw.ok:
        return Verdict(False, kw.witness, "not_kwise", downset)
    sat = _saturated(g, k, searcher, border)
    return Verdict(sat.ok, sat.witness, sat.reason, downset)


def verify_witness(v: Verdict, g: Family, k: int) -> bool:
    """Recheck a verdict's witness without the searcher that found it: a
    cover by direct mask arithmetic, a gap x by reading c(full ^ x) > k - 1
    from the cover levels, which need n <= TABLE_MAX_N."""
    _require_k(k)
    w = v.witness
    if w is None:
        raise ValueError("verdict carries no witness")
    u = g.universe
    full = u.full
    if isinstance(w, CoverWitness):
        if not w.masks or len(w.masks) > k:
            return False
        union = 0
        for m in w.masks:
            u.check_mask(m)
            if m not in g:
                return False
            union |= m
        return union == full
    if isinstance(w, GapWitness):
        u.require_table()
        u.check_mask(w.mask)
        if w.mask in g:
            return False
        levels = _cover_levels(g, min(k - 1, u.n), tuple(_low_words(u.n)))
        return not levels[-1] >> (full ^ w.mask) & 1
    raise TypeError(f"unsupported witness type {type(w).__name__}")
