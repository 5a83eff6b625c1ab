"""Plain-text family files.

Line 1 is `n=<int>`; every following non-empty line is one set, written as
a comma-separated ascending element list, with {} for the empty set. Input
additionally accepts 0x hex mask lines, blank lines and # comment lines.
Canonical output lists members in ascending mask order.
"""

from __future__ import annotations

import json
from operator import lt

from .setcore import Family, SetMask, Universe, elements_of


def format_set_line(m: SetMask) -> str:
    return "{}" if m == 0 else ",".join(str(e) for e in elements_of(m))


def parse_set_line(line: str, u: Universe) -> SetMask:
    if line == "{}":
        return 0
    # int() also reads signs, inner whitespace, underscores and non-ASCII
    # digits, none of which the format has: whole-line checks reject them
    if line[:2].lower() == "0x":
        digits = line[2:]
        try:
            if not (digits.isascii() and digits.isalnum()):
                raise ValueError
            m = int(line, 16)
        except ValueError:
            raise ValueError(f"bad hex mask line: {line!r}") from None
        return u.check_mask(m)
    # a minus sign passes here so that "-2" reports the element range
    if not (line.isascii() and line.replace(",", "").replace("-", "").isdigit()):
        raise ValueError(f"bad set line: {line!r}")
    mask = 0
    prev = 0
    for part in line.split(","):
        try:
            e = int(part)
        except ValueError:
            raise ValueError(f"bad set line: {line!r}") from None
        if not 1 <= e <= u.n:
            raise ValueError(f"element {e} outside universe 1..{u.n}")
        if e <= prev:
            raise ValueError(f"elements must be strictly ascending: {line!r}")
        mask |= 1 << (e - 1)
        prev = e
    return mask


def write_family(f: Family, header: dict | None = None) -> str:
    """Render a family in canonical file form, optionally with a one-line
    JSON header carried as a # comment."""
    lines = [f"n={f.universe.n}"]
    if header is not None:
        lines.append("# " + json.dumps(header, sort_keys=True))
    lines.extend(format_set_line(m) for m in f.members)
    return "\n".join(lines) + "\n"


def read_family(text: str) -> Family:
    u: Universe | None = None
    masks: list[SetMask] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if u is None:
            if not line.startswith("n="):
                raise ValueError(f"family files start with n=<int>, got {line!r}")
            size = line[2:]
            if not (size.isascii() and size.isdigit()):
                raise ValueError(f"bad universe size line: {line!r}")
            u = Universe(int(size))
            bit = {str(e): 1 << (e - 1) for e in range(1, u.n + 1)}.__getitem__
            continue
        # a canonical line (in-range elements without leading zeros, strictly
        # ascending) is summed from the per-file bit table; any other line,
        # valid or not, goes to parse_set_line for its mask or its error
        try:
            parts = list(map(bit, line.split(",")))
        except KeyError:
            parts = None
        if parts and all(map(lt, parts, parts[1:])):
            masks.append(sum(parts))
        else:
            masks.append(parse_set_line(line, u))
    if u is None:
        raise ValueError("empty family file (missing n=<int> header)")
    return Family(u, masks)
