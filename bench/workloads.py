"""Seeded inputs, CLI call lists and output checks for each benchmark workload.

Every input is generated from the workload seed and written as a family
file before any timing starts; the program under test sees only those files
and argv. Each call carries the exit code it must return and a check of its
stdout, so a wrong verdict, witness or table row counts as a failed call.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from kwise.construction import ConstructionParams, build_family, expected_size
from kwise.familyio import write_family
from kwise.setcore import Family, complement_family, maximal_elements

# Exact minimum sizes f(k, n) printed by `kwise table` at the commit that
# introduced this benchmark; they are facts about the problem, not timings.
ORACLE = {
    (k, n): v
    for k, row in {
        2: (1, 2, 4, 8, 16),
        3: (1, 2, 4, 5, 9),
        4: (1, 2, 4, 8, 6),
        5: (1, 2, 4, 8, 16),
        6: (1, 2, 4, 8, 16),
    }.items()
    for n, v in enumerate(row, start=1)
}

# (k, n, with_mutants) per verify call group, and (order, k, n, runs) per
# greedy call. The smoke cells keep n <= 10 so the benchmark's own test
# finishes in seconds.
CELLS = {
    "verify-construction": [(3, 20, True), (5, 20, True), (3, 22, False)],
    "verify-tuples": [(3, 18, True), (4, 18, True), (3, 20, False)],
    # Random order at k = 4 always ends at 2^(n-1) members, so its cost
    # barely depends on the seed; at k = 3 a third of the seeds stop at
    # half that size in half the time. The snapshot + searcher path
    # (n >= 15) costs 0.6 s to 19 s at (3, 16) depending on the random
    # order, so it runs in popcount order, whose cost is seed-free.
    "greedy": [("random", 4, 12, 2), ("popcount", 3, 18, 1)],
    "table": [((2, 6), (1, 5))],
}
SMOKE_CELLS = {
    "verify-construction": [(3, 8, True), (4, 9, True), (3, 10, False)],
    "verify-tuples": [(3, 8, True), (4, 9, True)],
    "greedy": [("random", 4, 8, 1), ("popcount", 3, 10, 1)],
    "table": [((2, 4), (1, 4))],
}

# Each workload runs two of the call groups above, one after the other.
# Two long workloads average the machine's speed drift better than four
# short ones in the same total time. The pairs keep both peak RSS figures
# visible: the cover table sets the first workload's peak and the
# CoverSearcher memo the second's.
WORKLOADS = {
    "verify-table": ("verify-construction", "table"),
    "tuples-greedy": ("verify-tuples", "greedy"),
}
NAMES = tuple(WORKLOADS)

Check = Callable[[str], "str | None"]


@dataclass(frozen=True)
class Call:
    """One CLI invocation: argv after `kwise`, expected exit code, stdout check
    returning an error message or None."""

    argv: tuple[str, ...]
    code: int
    check: Check


def build(name: str, seed: int, work: Path, smoke: bool = False) -> list[Call]:
    """Write the workload's input files under `work` and return its calls."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    return [call for group in WORKLOADS[name]
            for call in _group_calls(group, seed, work, smoke)]


def _group_calls(group: str, seed: int, work: Path, smoke: bool) -> list[Call]:
    cells = (SMOKE_CELLS if smoke else CELLS)[group]
    rng = random.Random(f"{group}:{seed}")
    if group == "verify-construction":
        return _verify_calls(cells, rng, work, direct=False)
    if group == "verify-tuples":
        return _verify_calls(cells, rng, work, direct=True)
    if group == "greedy":
        return [_greedy_call(order, k, n, runs, rng.randrange(1 << 30))
                for order, k, n, runs in cells]
    return [_table_call(ks, ns) for ks, ns in cells]


def _verify_calls(cells, rng: random.Random, work: Path, direct: bool) -> list[Call]:
    calls = []
    for k, n, with_mutants in cells:
        p = ConstructionParams(k, n)
        g = build_family(p).f  # complement world
        variants = [("construction", g, 0, _check_maximal(k, n, expected_size(p)))]
        if with_mutants:
            u = g.universe
            removed = rng.choice(maximal_elements(g).members)
            added = rng.randrange(u.num_masks)
            while added in g:
                added = rng.randrange(u.num_masks)
            g_rm = Family(u, (m for m in g.members if m != removed))
            g_add = Family(u, (*g.members, added))
            variants += [
                ("removed", g_rm, 3, _check_gap(k, n, g_rm, removed)),
                ("added", g_add, 2, _check_cover(k, n, g_add)),
            ]
        for label, fam, code, check in variants:
            path = work / f"{'direct' if direct else 'complement'}_k{k}_n{n}_{label}.txt"
            path.write_text(write_family(complement_family(fam) if direct else fam),
                            encoding="utf-8")
            argv = ["verify", str(path), "--k", str(k)]
            if direct:
                argv += ["--world", "direct", "--backend", "tuples"]
            calls.append(Call(tuple(argv), code, check))
    return calls


def _verdict(out: str, k: int, n: int, failure: str | None) -> dict:
    v = json.loads(out)
    if (v["k"], v["n"]) != (k, n):
        raise ValueError(f"verdict for k={v['k']} n={v['n']}, expected k={k} n={n}")
    if v["failure"] != failure:
        raise ValueError(f"failure {v['failure']!r}, expected {failure!r}")
    return v


def _check_maximal(k: int, n: int, size: int | None) -> Check:
    def check(out: str) -> str | None:
        v = _verdict(out, k, n, None)
        if v["maximal"] is not True:
            return "construction not reported maximal"
        if size is not None and v["size"] != size:
            return f"size {v['size']} != expected_size {size}"
        return None
    return check


def _check_gap(k: int, n: int, g: Family, removed: int) -> Check:
    """The gap witness is a non-member no later in ascending order than the
    removed maximal element, which is itself a gap."""
    def check(out: str) -> str | None:
        w = _verdict(out, k, n, "not_saturated")["witness"]
        if w["type"] != "gap" or w["completion"] is not None:
            return f"not a bare gap witness: {w}"
        mask = int(w["mask"], 16)
        if mask in g:
            return f"gap witness {mask:#x} is a member"
        if mask > removed:
            return f"gap witness {mask:#x} after the removed member {removed:#x}"
        return None
    return check


def _check_cover(k: int, n: int, g: Family) -> Check:
    """At most k members of the (complement-world) family whose union is
    the full set."""
    def check(out: str) -> str | None:
        w = _verdict(out, k, n, "not_kwise")["witness"]
        masks = [int(m, 16) for m in w["masks"]] if w["type"] == "cover" else []
        if not 1 <= len(masks) <= k:
            return f"cover witness of {len(masks)} members: {w}"
        if any(m not in g for m in masks):
            return f"cover witness uses a non-member: {w}"
        union = 0
        for m in masks:
            union |= m
        if union != g.universe.full:
            return f"cover witness union {union:#x} is not the full set"
        return None
    return check


def _tsv(out: str, columns: list[str]) -> list[dict]:
    header, *lines = out.splitlines()
    if header.split("\t") != columns:
        raise ValueError(f"columns {header!r}")
    return [dict(zip(columns, line.split("\t"))) for line in lines]


def _greedy_call(order: str, k: int, n: int, runs: int, seed: int) -> Call:
    argv = ("greedy", "--k", str(k), "--n", str(n), "--runs", str(runs),
            "--seed", str(seed), "--order", order)

    def check(out: str) -> str | None:
        rows = _tsv(out, ["k", "n", "seed", "order", "size", "maximal"])
        want = [(str(k), str(n), str(seed + r), order, "1") for r in range(runs)]
        got = [(r["k"], r["n"], r["seed"], r["order"], r["maximal"]) for r in rows]
        return None if got == want else f"greedy rows {got}, expected {want}"
    return Call(argv, 0, check)


def _table_call(ks: tuple[int, int], ns: tuple[int, int]) -> Call:
    argv = ("table", "--k", f"{ks[0]}..{ks[1]}", "--n", f"{ns[0]}..{ns[1]}")
    cells = [(k, n) for k in range(ks[0], ks[1] + 1) for n in range(ns[0], ns[1] + 1)]

    def check(out: str) -> str | None:
        rows = _tsv(out, ["k", "n", "size", "formula", "oracle", "greedy_min"])
        if [(int(r["k"]), int(r["n"])) for r in rows] != cells:
            return "table rows do not match the requested grid"
        for r in rows:
            cell = (int(r["k"]), int(r["n"]))
            if r["formula"] and r["size"] != r["formula"]:
                return f"size {r['size']} != formula {r['formula']} at {cell}"
            if int(r["oracle"]) != ORACLE[cell]:
                return f"oracle {r['oracle']} != {ORACLE[cell]} at {cell}"
        return None
    return Call(argv, 0, check)


HELP = Call(("--help",), 0, lambda out: None if "usage: kwise" in out else "no usage text")


def failure(call: Call, code: int, out: str) -> str | None:
    """Why a finished call failed the benchmark's checks, or None."""
    if code != call.code:
        return f"exit {code}, expected {call.code}"
    try:
        return call.check(out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output ({exc!r})"


class Outcomes:
    """Attempted and failed calls of one run. The first stdout of each call
    is kept, and a repeat must print it byte for byte."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors: list[str] = []
        self._first: dict[tuple[str, ...], str] = {}

    def record(self, call: Call, code: int, out: str) -> None:
        self.attempted += 1
        problem = failure(call, code, out)
        if problem is None and self._first.setdefault(call.argv, out) != out:
            problem = "stdout differs from an earlier run of the same call"
        if problem is not None:
            self.errors.append(f"kwise {' '.join(call.argv)}: {problem}")
