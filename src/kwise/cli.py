"""Command line interface: construct, verify, oracle, greedy, cube, table.

Output is deterministic given identical flags and seed. verify emits a
one-line JSON verdict; the other subcommands emit TSV (or JSON with
--format json). Exit codes: 0 success or maximal, 2 not k-wise
intersecting, 3 not saturated, 1 usage or error. The parser checks only
the limits of the command line; each (k, n) rule is the library's, whose
ValueError main prints as "error: <message>".
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

# Each handler imports the layers it runs, so a call loads only what its
# subcommand needs: --help loads no layer and verify loads no search.
if TYPE_CHECKING:
    from typing import Sequence

    from .setcore import Family

SCHEMA = 1
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_KWISE = 2
EXIT_NOT_SATURATED = 3

_CONSTRUCT_MAX_N = 30


class _Parser(argparse.ArgumentParser):
    """argparse variant exiting 1 on usage errors (2 is a verdict code)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _parse_range(parser: _Parser, text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError:
        parser.error(f"bad range {text!r}, expected INT or LO..HI")
    if lo > hi:
        parser.error(f"empty range {text!r}")
    return lo, hi


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """The parsed flags; ns.handler(ns) runs the chosen subcommand."""
    parser = _Parser(prog="kwise", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser("construct", help="emit the block construction family")
    p_construct.set_defaults(handler=_cmd_construct)
    p_construct.add_argument("--k", type=int, required=True)
    p_construct.add_argument("--n", type=int, required=True)

    p_verify = sub.add_parser("verify", help="verify a family file for maximality")
    p_verify.set_defaults(handler=_cmd_verify)
    p_verify.add_argument("input_path", metavar="family", nargs="?", default="-",
                          help="family file, - for stdin")
    p_verify.add_argument("--k", type=int, required=True)
    p_verify.add_argument(
        "--world", choices=("direct", "complement"), default="complement",
        help="world of the family file; witness masks are complement-world either way: "
             "a cover lists complements full ^ m of members m; a gap x means full ^ x "
             "can be added",
    )
    p_verify.add_argument(
        "--backend", choices=("dp", "tuples", "both", "auto"), default="auto",
        help="accepted for compatibility and echoed in the output; every value runs "
             "the same exact check",
    )

    p_oracle = sub.add_parser("oracle", help="exhaustive minimum over all maximal families")
    p_oracle.set_defaults(handler=_cmd_oracle)
    p_oracle.add_argument("--k", type=int, required=True)
    p_oracle.add_argument("--n", type=int, required=True)
    p_oracle.add_argument("--format", dest="fmt", choices=("tsv", "json"), default="tsv")

    p_greedy = sub.add_parser("greedy", help="seeded greedy saturation runs")
    p_greedy.set_defaults(handler=_cmd_greedy)
    p_greedy.add_argument("--k", type=int, required=True)
    p_greedy.add_argument("--n", type=int, required=True)
    p_greedy.add_argument("--runs", type=int, default=1)
    p_greedy.add_argument("--seed", type=int, default=0)
    p_greedy.add_argument("--order", choices=("random", "popcount"), default="random")
    p_greedy.add_argument("--in", dest="input_path", help="start from this family file")
    p_greedy.add_argument("--out", help="directory for the resulting family files")
    p_greedy.add_argument("--format", dest="fmt", choices=("tsv", "json"), default="tsv")

    p_cube = sub.add_parser("cube", help="recognise a cube family and name its blocks")
    p_cube.set_defaults(handler=_cmd_cube)
    p_cube.add_argument("input_path", metavar="family", nargs="?", default="-",
                        help="complement-world family file, - for stdin")
    p_cube.add_argument("--format", dest="fmt", choices=("tsv", "json"), default="tsv")

    p_table = sub.add_parser(
        "table", help="construction size, closed form and exact minimum over (k, n) ranges")
    p_table.set_defaults(handler=_cmd_table)
    p_table.add_argument("--k", required=True, help="INT or LO..HI")
    p_table.add_argument("--n", required=True, help="INT or LO..HI")
    p_table.add_argument("--format", dest="fmt", choices=("tsv", "json"), default="tsv")

    ns = parser.parse_args(argv)
    if ns.command == "construct" and ns.n > _CONSTRUCT_MAX_N:
        parser.error(f"construction output capped at n <= {_CONSTRUCT_MAX_N}")
    elif ns.command == "greedy" and ns.runs < 1:
        parser.error(f"--runs must be >= 1, got {ns.runs}")
    elif ns.command == "table":
        ns.k_range = _parse_range(parser, ns.k)
        ns.n_range = _parse_range(parser, ns.n)
        from .setcore import TABLE_MAX_N

        if ns.n_range[1] > TABLE_MAX_N:
            parser.error(f"table requires 1 <= n <= {TABLE_MAX_N}")
    return ns


def _witness_json(w) -> dict | None:
    from .verifier import CoverWitness, GapWitness

    if w is None:
        return None
    if isinstance(w, CoverWitness):
        return {"type": "cover", "masks": [f"0x{m:x}" for m in w.masks]}
    if isinstance(w, GapWitness):
        # schema 1 keeps the completion field, which is always null
        return {"type": "gap", "mask": f"0x{w.mask:x}", "completion": None}
    raise TypeError(f"unsupported witness type {type(w).__name__}")


def _emit_rows(fmt: str, command: str, rows: list[dict]) -> None:
    """Rows as JSON or as TSV, whose columns are the first row's keys."""
    if fmt == "json":
        print(json.dumps({"schema": SCHEMA, "command": command, "rows": rows}, sort_keys=True))
        return
    columns = list(rows[0])
    print("\t".join(columns))
    for r in rows:
        print("\t".join("" if r[c] is None else str(r[c]) for c in columns))


def _read_input_family(path: str | None, n: int | None = None) -> Family:
    """The family in path (stdin for None or -), which must be over [n]
    when n is given."""
    from .familyio import read_family

    if path in (None, "-"):
        fam = read_family(sys.stdin.read())
    else:
        with open(path, encoding="utf-8") as fh:
            fam = read_family(fh.read())
    if n is not None and fam.universe.n != n:
        raise ValueError(f"input family has n={fam.universe.n}, flags say n={n}")
    return fam


def _cmd_construct(ns: argparse.Namespace) -> int:
    from .construction import ConstructionParams, build_family, expected_size
    from .familyio import write_family

    p = ConstructionParams(ns.k, ns.n)
    built = build_family(p)
    header = {
        "schema": SCHEMA,
        "k": p.k,
        "n": p.n,
        "block_sizes": [b.bit_count() for b in built.blocks],
        "specials": [(b & -b).bit_length() for b in built.blocks],
        "size": len(built.f),
        "expected_size": expected_size(p),
    }
    sys.stdout.write(write_family(built.f, header=header))
    return EXIT_OK


def _cmd_verify(ns: argparse.Namespace) -> int:
    from .setcore import _require_k
    from .verifier import is_maximal_kwise

    _require_k(ns.k)  # before stdin is read
    fam = _read_input_family(ns.input_path)
    v = is_maximal_kwise(fam, ns.k, ns.world)
    payload = {
        "schema": SCHEMA,
        "command": "verify",
        "k": ns.k,
        "n": fam.universe.n,
        "world": ns.world,
        "backend": ns.backend,
        "size": len(fam),
        "maximal": v.ok,
        "failure": v.reason,
        "complement_downset": v.complement_downset,
        "witness": _witness_json(v.witness),
    }
    print(json.dumps(payload, sort_keys=True))
    if v.ok:
        return EXIT_OK
    return EXIT_NOT_KWISE if v.reason == "not_kwise" else EXIT_NOT_SATURATED


def _cmd_oracle(ns: argparse.Namespace) -> int:
    from .search import oracle_min_size
    from .setcore import Universe

    res = oracle_min_size(ns.k, Universe(ns.n))
    row = {
        "k": res.k,
        "n": res.n,
        "f": res.f_k_n,
        "extremal_count": res.extremal_count,
        "sample": ",".join(f"0x{m:x}" for m in res.sample_extremal.members),
    }
    _emit_rows(ns.fmt, "oracle", [row])
    return EXIT_OK


def _cmd_greedy(ns: argparse.Namespace) -> int:
    from .familyio import write_family
    from .search import greedy_saturate
    from .setcore import Family, Universe, _require_k
    from .verifier import is_maximal_kwise

    _require_k(ns.k)  # before stdin is read
    if ns.input_path:
        g0 = _read_input_family(ns.input_path, ns.n)
    else:
        g0 = Family(Universe(ns.n))
    out_dir = None
    if ns.out:
        # Path.mkdir's errors name the --out path itself, where os.makedirs
        # may name one of its parents
        from pathlib import Path

        out_dir = Path(ns.out)
        out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for r in range(ns.runs):
        seed = ns.seed + r
        if r == 0 or ns.order == "random":  # the popcount order has no seed
            fam = greedy_saturate(g0, ns.k, seed, order=ns.order)
            maximal = int(is_maximal_kwise(fam, ns.k, "complement").ok)
        rows.append({
            "k": ns.k,
            "n": ns.n,
            "seed": seed,
            "order": ns.order,
            "size": len(fam),
            "maximal": maximal,
        })
        if out_dir:
            header = {"schema": SCHEMA, "k": ns.k, "n": ns.n, "seed": seed,
                      "order": ns.order, "size": len(fam)}
            path = out_dir / f"greedy_k{ns.k}_n{ns.n}_seed{seed}.txt"
            path.write_text(write_family(fam, header=header), encoding="utf-8")
    _emit_rows(ns.fmt, "greedy", rows)
    return EXIT_OK


def _cmd_cube(ns: argparse.Namespace) -> int:
    from .familyio import format_set_line
    from .search import cube_blocks

    fam = _read_input_family(ns.input_path)
    blocks = cube_blocks(fam)
    row = {
        "n": fam.universe.n,
        "size": len(fam),
        "cube": int(blocks is not None),
        "blocks": None if blocks is None else "|".join(map(format_set_line, blocks)),
    }
    _emit_rows(ns.fmt, "cube", [row])
    return EXIT_OK


def _cmd_table(ns: argparse.Namespace) -> int:
    from .search import size_table

    rows = size_table(
        range(ns.k_range[0], ns.k_range[1] + 1),
        range(ns.n_range[0], ns.n_range[1] + 1),
    )
    _emit_rows(ns.fmt, "table", rows)
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    try:
        ns = parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:  # argparse exits on usage errors and --help
        return exc.code if isinstance(exc.code, int) else EXIT_ERROR
    try:
        return ns.handler(ns)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
