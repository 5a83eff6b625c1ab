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
is a border mask. Failed checks carry witnesses that re-verify by plain
mask arithmetic, independently of the search that produced them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .setcore import (
    _member_array,
    CoverSearcher,
    Family,
    SetMask,
    build_cover_table,  # noqa: F401  bench/tracer.py patches this binding
    complement_family,
    is_downset,
    maximal_elements,
)


@dataclass(frozen=True)
class CoverWitness:
    """At most k members whose union is the full ground set."""

    masks: tuple[SetMask, ...]


@dataclass(frozen=True)
class GapWitness:
    """A non-member mask that no <= k-1 members complete to the full set,
    so it could be added and the family was not maximal."""

    mask: SetMask


@dataclass(frozen=True)
class Verdict:
    ok: bool
    witness: CoverWitness | GapWitness | None = None
    reason: str | None = None  # "not_kwise" or "not_saturated"
    complement_downset: bool | None = None


def _require_k(k: int) -> None:
    if k < 2:
        raise ValueError(f"arity k must be >= 2, got {k}")


def _searcher(g: Family) -> CoverSearcher:
    return CoverSearcher(maximal_elements(g).members, g.universe.n)


def check_kwise(g: Family, k: int) -> Verdict:
    """No multiset of <= k members of g may union to the full ground set,
    decided by one search over maximal elements."""
    _require_k(k)
    return _kwise(g, k, _searcher(g))


def _kwise(g: Family, k: int, searcher: CoverSearcher) -> Verdict:
    if not g.members:
        return Verdict(True)
    found = searcher.find(g.universe.full, k)
    if found is None:
        return Verdict(True)
    return Verdict(False, CoverWitness(found), reason="not_kwise")


def _border(g: Family) -> np.ndarray:
    """Ascending non-members x such that x ^ b is a member for every bit b
    of x: the minimal non-members, including 0 when 0 is not a member."""
    member = np.zeros(g.universe.num_masks, dtype=bool)
    member[_member_array(g)] = True
    border = ~member
    for i in range(g.universe.n):
        b = border.reshape(-1, 2, 1 << i)
        m = member.reshape(-1, 2, 1 << i)
        np.logical_and(b[:, 1, :], m[:, 0, :], out=b[:, 1, :])
    return np.flatnonzero(border)


def check_saturated(g: Family, k: int) -> Verdict:
    """Every non-member mask must admit <= k-1 members completing it to the
    full set.

    Border masks are confirmed by search in ascending order and the verdict
    carries the first failure: a mask that could be added without breaking
    the k-wise property.
    """
    _require_k(k)
    return _saturated(g, k, _searcher(g))


def _saturated(g: Family, k: int, searcher: CoverSearcher) -> Verdict:
    u = g.universe
    u.require_table()
    # a cover never needs more than n members, so larger budgets decide alike
    j = min(k - 1, u.n)
    for x in map(int, _border(g)):
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
    g.universe.require_table()
    downset = is_downset(g)
    # one searcher serves both checks; the k-wise query runs on it first
    searcher = _searcher(g)
    kw = _kwise(g, k, searcher)
    if not kw.ok:
        return Verdict(False, kw.witness, "not_kwise", downset)
    sat = _saturated(g, k, searcher)
    return Verdict(sat.ok, sat.witness, sat.reason, downset)


def verify_witness(v: Verdict, g: Family, k: int) -> bool:
    """Recheck a verdict's witness by direct mask arithmetic (gap masks are
    reconfirmed by an exhaustive independent search)."""
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
        u.check_mask(w.mask)
        if w.mask in g:
            return False
        return _searcher(g).find(full & ~w.mask, k - 1) is None
    raise TypeError(f"unsupported witness type {type(w).__name__}")
