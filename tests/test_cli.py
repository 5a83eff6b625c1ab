import ast
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kwise import (
    ConstructionParams,
    Family,
    build_family,
    maximal_elements,
    read_family,
    write_family,
)
from kwise.cli import main, parse_args

SRC = str(Path(__file__).resolve().parents[1] / "src")
GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = json.loads((GOLDEN_DIR / "verify_cli.json").read_text())
GREEDY_GOLDEN = json.loads((GOLDEN_DIR / "greedy_cli.json").read_text())
ORACLE_GOLDEN = json.loads((GOLDEN_DIR / "oracle_cli.json").read_text())
CONSTRUCT_GOLDEN = json.loads((GOLDEN_DIR / "construct_cli.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- argument parsing --------------------------------------------------------


def test_parse_construct():
    cfg = parse_args(["construct", "--k", "4", "--n", "9"])
    assert (cfg.command, cfg.k, cfg.n) == ("construct", 4, 9)


def test_parse_verify_with_file():
    cfg = parse_args(["verify", "--k", "3", "family.txt", "--world", "direct"])
    assert cfg.command == "verify"
    assert cfg.input_path == "family.txt"
    assert cfg.world == "direct"
    assert cfg.backend == "auto"


def test_parse_table_ranges():
    cfg = parse_args(["table", "--k", "3..5", "--n", "4..12"])
    assert cfg.k_range == (3, 5) and cfg.n_range == (4, 12)
    cfg2 = parse_args(["table", "--k", "3", "--n", "6"])
    assert cfg2.k_range == (3, 3) and cfg2.n_range == (6, 6)


# argv and the last stderr line it gives; new cases go at the end, or in the
# place of a case that moved out, so the argvN test ids stay put
USAGE_ERRORS = [
    # argv0, argv5 and argv15: a CLI limit is read before the library's (k, n) rules
    (["construct", "--k", "2", "--n", "31"],
     "kwise: error: construction output capped at n <= 30"),
    (["construct", "--k", "4", "--n", "x"],
     "kwise construct: error: argument --n: invalid int value: 'x'"),
    (["construct", "--k", "3"],
     "kwise construct: error: the following arguments are required: --n"),
    (["verify"], "kwise verify: error: the following arguments are required: --k"),
    (["table", "--k", "3", "--n", "4..x"],
     "kwise: error: bad range '4..x', expected INT or LO..HI"),
    (["greedy", "--k", "1", "--n", "30", "--runs", "0"],
     "kwise: error: --runs must be >= 1, got 0"),
    (["table", "--k", "5..3", "--n", "4"], "kwise: error: empty range '5..3'"),
    (["table", "--k", "x", "--n", "4"], "kwise: error: bad range 'x', expected INT or LO..HI"),
    (["cube", "--minimize"], "kwise: error: unrecognized arguments: --minimize"),
    (["nonsense"], "kwise: error: argument command: invalid choice: 'nonsense'"),
    (["verify", "--k", "2", "--frobnicate"], "kwise: error: unrecognized arguments: --frobnicate"),
    (["verify", "--k", "3", "--backend", "bogus"],
     "kwise verify: error: argument --backend: invalid choice: 'bogus'"),
    (["construct", "--k", "3", "--n", "31"], "kwise: error: construction output capped at n <= 30"),
    (["greedy", "--k", "3", "--n", "8", "--runs", "0"], "kwise: error: --runs must be >= 1, got 0"),
    (["table", "--k", "2", "--n", "25"], "kwise: error: table requires 1 <= n <= 24"),
    (["table", "--k", "1", "--n", "3..25"], "kwise: error: table requires 1 <= n <= 24"),
    (["cube", "--format", "xml"], "kwise cube: error: argument --format: invalid choice: 'xml'"),
    (["cube", "a.txt", "b.txt"], "kwise: error: unrecognized arguments: b.txt"),
    # greedy runs are `kwise greedy`'s alone
    (["table", "--k", "3", "--n", "8", "--runs", "1"],
     "kwise: error: unrecognized arguments: --runs 1"),
    (["table", "--k", "3", "--n", "8", "--seed", "0"],
     "kwise: error: unrecognized arguments: --seed 0"),
    (["table", "--k", "3", "--n", "8", "--order", "popcount"],
     "kwise: error: unrecognized arguments: --order popcount"),
    # construct writes to stdout only: `kwise construct ... > FILE`
    (["construct", "--k", "3", "--n", "8", "--out", "x.txt"],
     "kwise: error: unrecognized arguments: --out x.txt"),
]


@pytest.mark.parametrize(
    ("argv", "last_line"), USAGE_ERRORS, ids=[f"argv{i}" for i in range(len(USAGE_ERRORS))]
)
def test_usage_errors_exit_1(argv, last_line, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    last = err.splitlines()[-1]
    if "invalid choice" in last_line:
        # how argparse lists the choices after the value varies by Python version
        assert last.startswith(last_line + " "), last
    else:
        assert last == last_line


# argv and the last stderr line it gives: each (k, n) rule is checked by the
# library, whose ValueError main prints after "error: ", with no usage line
HANDLER_ERRORS = {
    "construct-k2": (["construct", "--k", "2", "--n", "8"],
                     "error: construction requires k >= 3, got k=2"),
    "construct-k4-n5": (["construct", "--k", "4", "--n", "5"],
                        "error: construction requires n >= 2(k-1) = 6, got n=5"),
    "verify-k1": (["verify", "--k", "1"], "error: arity k must be >= 2, got 1"),
    "oracle-k1": (["oracle", "--k", "1", "--n", "3"], "error: arity k must be >= 2, got 1"),
    "oracle-n6": (["oracle", "--k", "2", "--n", "6"],
                  "error: exhaustive oracle needs n <= 5, got n=6"),
    "greedy-k1": (["greedy", "--k", "1", "--n", "3"], "error: arity k must be >= 2, got 1"),
    "greedy-n30": (["greedy", "--k", "3", "--n", "30"],
                   "error: greedy saturation needs n <= 20, got n=30"),
    "table-k1": (["table", "--k", "1", "--n", "3"], "error: arity k must be >= 2, got 1"),
    "table-n0": (["table", "--k", "2", "--n", "0..3"],
                 "error: universe size must be in 1..62, got 0"),
}


@pytest.mark.parametrize(("argv", "last_line"), HANDLER_ERRORS.values(), ids=HANDLER_ERRORS)
def test_handler_errors_exit_1(argv, last_line, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err.splitlines()[-1]) == (1, "", last_line)
    assert "usage:" not in err


class _UnreadStdin:
    def read(self, *args):
        raise AssertionError("stdin was read")


@pytest.mark.parametrize(
    "argv", [["verify", "--k", "1"], ["greedy", "--k", "1", "--n", "3", "--in", "-"]],
    ids=["verify", "greedy"],
)
def test_arity_error_before_stdin(argv, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", _UnreadStdin())
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", "error: arity k must be >= 2, got 1\n")


SUBCOMMANDS = ("construct", "verify", "oracle", "greedy", "cube", "table")


@pytest.mark.parametrize("argv", [["--help"], *([sub, "--help"] for sub in SUBCOMMANDS)])
def test_help_exits_0(argv, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: kwise")


# --- construct ---------------------------------------------------------------


def test_construct_stdout_and_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "construct", "--k", "3", "--n", "8")
    assert code == 0
    fam = read_family(out)
    assert fam == build_family(ConstructionParams(3, 8)).f
    header = json.loads(out.splitlines()[1].lstrip("# "))
    assert header["size"] == 29 and header["expected_size"] == 29
    assert header["block_sizes"] == [4, 4] and header["specials"] == [1, 5]


@pytest.mark.parametrize(
    "case", CONSTRUCT_GOLDEN, ids=lambda c: "-".join(a.lstrip("-") for a in c["argv"][1:])
)
def test_construct_golden_output(case, capsys):
    # recorded from the builder that unioned per-block pieces, and the
    # uneven (4, 7) and (5, 10) cells before the partition became plain
    # block masks; the small cells keep their whole stdout, the large ones
    # its sha256 and line count. The uneven cells' expected_size was
    # re-recorded when the block sum filled it.
    code, out, _ = run_cli(capsys, *case["argv"])
    if "stdout" in case:
        assert (code, out) == (case["code"], case["stdout"])
    else:
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert (code, digest, out.count("\n")) == (case["code"], case["sha256"], case["lines"])


def test_construct_byte_stable(capsys):
    _, first, _ = run_cli(capsys, "construct", "--k", "4", "--n", "9")
    _, second, _ = run_cli(capsys, "construct", "--k", "4", "--n", "9")
    assert first == second


# --- verify ------------------------------------------------------------------


def _verify_stdin(capsys, monkeypatch, text, *flags):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    return run_cli(capsys, "verify", *flags)


def test_construct_pipe_verify_maximal(capsys, monkeypatch):
    _, family_text, _ = run_cli(capsys, "construct", "--k", "3", "--n", "8")
    code, out, _ = _verify_stdin(
        capsys, monkeypatch, family_text, "--k", "3", "--world", "complement"
    )
    assert code == 0
    verdict = json.loads(out)
    assert verdict["maximal"] is True
    assert verdict["schema"] == 1
    assert verdict["witness"] is None
    assert verdict["complement_downset"] is True


def test_verify_not_kwise_exit_2(capsys, monkeypatch):
    # the full set is a member, so one complement-world member covers [n]
    text = "n=3\n{}\n1\n1,2,3\n"
    code, out, _ = _verify_stdin(capsys, monkeypatch, text, "--k", "3")
    assert code == 2
    verdict = json.loads(out)
    assert verdict["failure"] == "not_kwise"
    assert verdict["witness"]["type"] == "cover"
    assert verdict["witness"]["masks"] == ["0x7"]


def test_verify_not_saturated_exit_3(capsys, monkeypatch):
    code, out, _ = _verify_stdin(capsys, monkeypatch, "n=3\n{}\n", "--k", "3")
    assert code == 3
    verdict = json.loads(out)
    assert verdict["failure"] == "not_saturated"
    assert verdict["witness"]["type"] == "gap"
    assert verdict["witness"]["completion"] is None


def test_verify_direct_world_star(capsys, monkeypatch):
    # the star over [4] in the direct world: all sets containing 1
    star_lines = ["n=4"]
    for m in range(16):
        if m & 1:
            star_lines.append(",".join(str(i + 1) for i in range(4) if m >> i & 1))
    code, out, _ = _verify_stdin(
        capsys, monkeypatch, "\n".join(star_lines) + "\n", "--k", "4", "--world", "direct"
    )
    assert code == 0 and json.loads(out)["maximal"] is True


def test_verify_direct_world_witnesses_are_complement_masks(capsys, monkeypatch):
    # under --world direct the witness masks still live in the complement
    # world: a cover lists the complements full ^ m of direct members m, and
    # a gap x says that full ^ x could be added to the direct family
    direct = {0b011, 0b101, 0b110}  # {1,2}, {1,3}, {2,3}: no common element
    code, out, _ = _verify_stdin(
        capsys, monkeypatch, "n=3\n1,2\n1,3\n2,3\n", "--k", "3", "--world", "direct"
    )
    verdict = json.loads(out)
    assert code == 2 and verdict["failure"] == "not_kwise"
    masks = [int(m, 16) for m in verdict["witness"]["masks"]]
    assert masks == [0b001, 0b010, 0b100]
    assert not direct & set(masks) and {0b111 ^ m for m in masks} == direct

    code, out, _ = _verify_stdin(
        capsys, monkeypatch, "n=3\n1,2,3\n", "--k", "2", "--world", "direct"
    )
    verdict = json.loads(out)
    assert code == 3 and verdict["failure"] == "not_saturated"
    assert verdict["witness"]["mask"] == "0x1"  # {2,3} = full ^ 0x1 can be added


def test_verify_backend_both_agrees(capsys, monkeypatch):
    _, family_text, _ = run_cli(capsys, "construct", "--k", "4", "--n", "9")
    code, out, _ = _verify_stdin(
        capsys, monkeypatch, family_text, "--k", "4", "--backend", "both"
    )
    assert code == 0 and json.loads(out)["maximal"] is True


def _golden_family(k, n, variant):
    g = build_family(ConstructionParams(k, n)).f
    if variant == "removed":
        removed = maximal_elements(g).members[-1]
        return Family(g.universe, (m for m in g.members if m != removed))
    if variant == "added":
        added = next(m for m in range(g.universe.num_masks) if m not in g)
        return Family(g.universe, (*g.members, added))
    return g


@pytest.mark.parametrize(
    "case", GOLDEN, ids=lambda c: f"k{c['k']}n{c['n']}-{c['variant']}-{c['backend']}"
)
def test_verify_golden_output(case, capsys, monkeypatch):
    # stdout recorded from the two-prime cover-table verifier; the exact
    # path must reproduce it byte for byte, witnesses included
    text = write_family(_golden_family(case["k"], case["n"], case["variant"]))
    code, out, _ = _verify_stdin(
        capsys, monkeypatch, text, "--k", str(case["k"]), "--backend", case["backend"]
    )
    assert code == {"construction": 0, "removed": 3, "added": 2}[case["variant"]]
    assert (code, out) == (case["code"], case["stdout"])


def test_verify_missing_file_exit_1(capsys):
    code, _, err = run_cli(capsys, "verify", "--k", "3", "/no/such/file.txt")
    assert code == 1 and "error" in err


def test_verify_malformed_family_exit_1(capsys, monkeypatch):
    code, _, err = _verify_stdin(capsys, monkeypatch, "bogus\n", "--k", "3")
    assert code == 1 and "error" in err


# --- oracle, greedy, cube, table ----------------------------------------------


def test_oracle_tsv(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--k", "2", "--n", "3")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.split("\t") == ["k", "n", "f", "extremal_count", "sample"]
    fields = row.split("\t")
    assert fields[:4] == ["2", "3", "4", "4"]


def test_oracle_json(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--k", "2", "--n", "3", "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["rows"][0]["f"] == 4


@pytest.mark.parametrize("argv,columns", [
    (["greedy", "--k", "3", "--n", "7", "--runs", "2", "--seed", "1"],
     ["k", "n", "seed", "order", "size", "maximal"]),
    (["table", "--k", "2..4", "--n", "3..5"],
     ["k", "n", "size", "formula", "oracle", "greedy_min"]),
], ids=["greedy", "table"])
def test_json_rows_match_tsv(capsys, argv, columns):
    # both formats come from the same rows: the TSV columns are the row
    # keys in order, an empty TSV cell is a JSON null
    code, tsv, _ = run_cli(capsys, *argv)
    assert code == 0
    header, *lines = tsv.splitlines()
    assert header.split("\t") == columns
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["schema"] == 1 and payload["command"] == argv[0]
    assert len(payload["rows"]) == len(lines) >= 1
    for line, row in zip(lines, payload["rows"]):
        assert sorted(row) == sorted(columns)
        assert line.split("\t") == ["" if row[c] is None else str(row[c]) for c in columns]


def test_greedy_rows_and_files(capsys, tmp_path):
    out_dir = tmp_path / "fams"
    code, out, _ = run_cli(
        capsys, "greedy", "--k", "3", "--n", "7", "--runs", "3", "--seed", "5",
        "--out", str(out_dir),
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == ["k", "n", "seed", "order", "size", "maximal"]
    assert len(lines) == 4
    for line in lines[1:]:
        fields = line.split("\t")
        assert fields[5] == "1"  # every run verified maximal
        fam = read_family((out_dir / f"greedy_k3_n7_seed{fields[2]}.txt").read_text())
        assert len(fam) == int(fields[4])


def test_greedy_byte_stable(capsys):
    args = ("greedy", "--k", "3", "--n", "7", "--runs", "2", "--seed", "9")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def _greedy_seed_family(k, n, step):
    f = build_family(ConstructionParams(k, n)).f
    return Family(f.universe, f.members[::step])


@pytest.mark.parametrize(
    "case",
    GREEDY_GOLDEN,
    ids=lambda c: "-".join(a.lstrip("-") for a in c["argv"]) + ("-in" if "seed_family" in c else ""),
)
def test_greedy_golden_output(case, capsys, tmp_path):
    # stdout and written family files recorded from the two-path greedy (a
    # cover table rebuilt per insertion for n <= 14, a snapshot table plus
    # cover search above); the coverage-level path must reproduce them
    argv = ["greedy", *case["argv"], "--out", str(tmp_path)]
    if "seed_family" in case:
        seed_path = tmp_path / "seed.txt"
        seed_path.write_text(write_family(_greedy_seed_family(**case["seed_family"])))
        argv += ["--in", str(seed_path)]
    code, out, _ = run_cli(capsys, *argv)
    files = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.glob("greedy_*.txt"))
    }
    assert (code, out, files) == (case["code"], case["stdout"], case["files"])


def test_greedy_popcount_runs_once_for_every_seed(capsys, monkeypatch, tmp_path):
    from kwise import search, verifier

    calls = []

    def count(module, name):
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    count(search, "greedy_saturate")
    count(verifier, "is_maximal_kwise")
    argv = ("greedy", "--k", "3", "--n", "8", "--order", "popcount")
    code, out, _ = run_cli(capsys, *argv, "--runs", "3", "--seed", "4", "--out", str(tmp_path))
    assert code == 0 and calls == ["greedy_saturate", "is_maximal_kwise"]
    # each row and file equals that of a single run with its seed
    header, *rows = out.splitlines(keepends=True)
    for seed, row in zip((4, 5, 6), rows, strict=True):
        one = tmp_path / str(seed)
        assert run_cli(capsys, *argv, "--seed", str(seed), "--out", str(one))[1] == header + row
        name = f"greedy_k3_n8_seed{seed}.txt"
        assert (tmp_path / name).read_bytes() == (one / name).read_bytes()
    calls.clear()
    run_cli(capsys, "greedy", "--k", "3", "--n", "8", "--runs", "3")
    assert calls == ["greedy_saturate", "is_maximal_kwise"] * 3


# the construction's cube family has its two blocks; at (4, 9) it is none,
# and at (3, 4), with blocks of 2, it is the cube family with no blocks
CUBE_ROWS = [
    (3, 10, "10\t61\t1\t1,2,3,4,5|6,7,8,9,10", "1,2,3,4,5|6,7,8,9,10"),
    (4, 9, "9\t34\t0\t", None),
    (3, 4, "4\t5\t1\t", ""),
]


@pytest.mark.parametrize(("k", "n", "tsv_row", "blocks"), CUBE_ROWS,
                         ids=[f"k{c[0]}n{c[1]}" for c in CUBE_ROWS])
def test_cube_rows(k, n, tsv_row, blocks, capsys, monkeypatch, tmp_path):
    _, family_text, _ = run_cli(capsys, "construct", "--k", str(k), "--n", str(n))
    path = tmp_path / "fam.txt"
    path.write_text(family_text, encoding="utf-8")
    want = (0, f"n\tsize\tcube\tblocks\n{tsv_row}\n", "")
    assert run_cli(capsys, "cube", str(path)) == want
    monkeypatch.setattr("sys.stdin", io.StringIO(family_text))
    assert run_cli(capsys, "cube") == want
    code, out, _ = run_cli(capsys, "cube", str(path), "--format", "json")
    size, cube = map(int, tsv_row.split("\t")[1:3])
    assert code == 0 and json.loads(out) == {
        "schema": 1, "command": "cube",
        "rows": [{"n": n, "size": size, "cube": cube, "blocks": blocks}],
    }


def test_cube_malformed_family_exit_1(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("bogus\n"))
    code, out, err = run_cli(capsys, "cube")
    assert (code, out) == (1, "") and err.startswith("error: ")


@pytest.mark.parametrize("command", ["greedy"])
def test_input_family_size_mismatch_exit_1(command, capsys, tmp_path):
    seed_path = tmp_path / "seed.txt"
    seed_path.write_text("n=7\n{}\n", encoding="utf-8")
    code, out, err = run_cli(capsys, command, "--k", "3", "--n", "8", "--in", str(seed_path))
    assert (code, out) == (1, "")
    assert err == "error: input family has n=7, flags say n=8\n"


def test_table_formula_matches_construction(capsys):
    code, out, _ = run_cli(capsys, "table", "--k", "3..5", "--n", "4..12")
    assert code == 0
    lines = out.strip().splitlines()
    cols = lines[0].split("\t")
    for line in lines[1:]:
        row = dict(zip(cols, line.split("\t")))
        assert row["size"] == row["formula"], row


@pytest.mark.parametrize(
    "case", ORACLE_GOLDEN, ids=lambda c: "-".join(a.lstrip("-") for a in c["argv"])
)
def test_oracle_golden_output(case, capsys):
    # stdout recorded from the per-k oracle that sent every down-set through
    # the verifier once per k; the one-pass oracle must reproduce it, the
    # first achiever in enumeration order and the achiever counts included.
    # The table cases, TSV and JSON, pin the always-empty greedy_min column;
    # their formula column was re-recorded when it filled on uneven cells.
    code, out, _ = run_cli(capsys, *case["argv"])
    assert (code, out) == (case["code"], case["stdout"])


def test_table_oracle_cell(capsys):
    code, out, _ = run_cli(capsys, "table", "--k", "2", "--n", "4")
    lines = out.strip().splitlines()
    row = dict(zip(lines[0].split("\t"), lines[1].split("\t")))
    assert row["oracle"] == "8" and row["size"] == ""


# --- end-to-end through a real pipe -------------------------------------------


def test_shell_pipeline_construct_verify():
    env = dict(os.environ, PYTHONPATH=SRC)
    construct = subprocess.run(
        [sys.executable, "-m", "kwise", "construct", "--k", "3", "--n", "8"],
        capture_output=True, text=True, env=env,
    )
    assert construct.returncode == 0
    verify = subprocess.run(
        [sys.executable, "-m", "kwise", "verify", "--k", "3", "--world", "complement"],
        input=construct.stdout, capture_output=True, text=True, env=env,
    )
    assert verify.returncode == 0, verify.stderr
    assert json.loads(verify.stdout)["maximal"] is True


# --- each command loads only what it runs --------------------------------------

# Runs `kwise ARGV` through cli.main, or with ARGV "library" the star import
# and a verdict whose gap witness is rechecked on the cover levels; with
# "block" first, every import of numpy raises ImportError. The last stderr
# line is a dict literal: whether numpy was loaded, whether the call loaded
# dataclasses (judged against what the interpreter had loaded before kwise,
# so a site hook cannot count), and the kwise modules loaded.
_RUN_WITHOUT_NUMPY = """\
import sys
bare = set(sys.modules)
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
if sys.argv[2:] == ["library"]:
    from kwise import *
    g = Family(Universe(4), range(5))  # the down-closure of {0b0011, 0b0100}
    v = is_maximal_kwise(g, 3, "complement")
    print(v.reason, v.witness, verify_witness(v, g, 3))
    code = 0
else:
    from kwise.cli import main
    code = main(sys.argv[2:])
sys.stdout.flush()
print({
    "numpy": sys.modules.get("numpy") is not None,
    "dataclasses": "dataclasses" in set(sys.modules) - bare,
    "kwise": sorted(m for m in sys.modules if m.split(".")[0] == "kwise"),
}, file=sys.stderr)
sys.exit(code)
"""


def _construct_3_8(edit):
    lines = subprocess.run(
        [sys.executable, "-m", "kwise", "construct", "--k", "3", "--n", "8"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC), check=True,
    ).stdout.splitlines(keepends=True)
    return "".join(edit(lines))


_LAYERS = ("kwise.construction", "kwise.familyio", "kwise.search", "kwise.setcore",
           "kwise.verifier")
# construction holds NamedTuples, so no call loads dataclasses (with inspect,
# ast, dis and tokenize behind it), the construct and table calls included
_NOT_ON_VERIFY = ("kwise.search", "kwise.construction", "dataclasses")
_NOT_ON_GREEDY = ("kwise.construction", "dataclasses")
_NOT_ON_CUBE = ("kwise.construction", "kwise.verifier", "dataclasses")

# (id, argv, stdin edit of the (3, 8) construction or None, exit code,
# modules the call must not load)
NO_NUMPY_CASES = [
    ("help", ["--help"], None, 0, (*_LAYERS, "dataclasses")),
    ("construct", ["construct", "--k", "3", "--n", "8"], None, 0, ("dataclasses",)),
    ("verify-maximal", ["verify", "--k", "3"], lambda ls: ls, 0, _NOT_ON_VERIFY),
    ("verify-not-kwise", ["verify", "--k", "3"], lambda ls: ls + ["1,2,3,4,5,6,7,8\n"], 2,
     _NOT_ON_VERIFY),
    ("verify-not-downset", ["verify", "--k", "3"], lambda ls: ls[:2] + ls[3:], 3,
     _NOT_ON_VERIFY),
    ("oracle", ["oracle", "--k", "3", "--n", "5"], None, 0, ("dataclasses",)),
    ("greedy-random", ["greedy", "--k", "3", "--n", "10", "--runs", "2"], None, 0,
     _NOT_ON_GREEDY),
    ("greedy-popcount", ["greedy", "--k", "4", "--n", "10", "--order", "popcount"], None, 0,
     _NOT_ON_GREEDY),
    ("cube", ["cube"], lambda ls: ls, 0, _NOT_ON_CUBE),
    ("table", ["table", "--k", "2..4", "--n", "3..6"], None, 0, ("dataclasses",)),
    ("table-bench", ["table", "--k", "2..6", "--n", "1..5"], None, 0, ("dataclasses",)),
    ("library", ["library"], None, 0, ("kwise.cli", "dataclasses")),
]


@pytest.mark.parametrize(("argv", "edit", "code", "absent"), [c[1:] for c in NO_NUMPY_CASES],
                         ids=[c[0] for c in NO_NUMPY_CASES])
def test_cli_runs_without_numpy(argv, edit, code, absent):
    stdin = None if edit is None else _construct_3_8(edit)
    env = dict(os.environ, PYTHONPATH=SRC)
    runs = {
        mode: subprocess.run(
            [sys.executable, "-c", _RUN_WITHOUT_NUMPY, mode, *argv],
            input=stdin, capture_output=True, text=True, env=env,
        )
        for mode in ("block", "plain")
    }
    for run in runs.values():
        assert run.returncode == code, run.stderr
        report = ast.literal_eval(run.stderr.splitlines()[-1])
        assert report["numpy"] is False
        assert "kwise" in report["kwise"]
        loaded = set(report["kwise"]) | ({"dataclasses"} if report["dataclasses"] else set())
        assert not loaded & set(absent), sorted(loaded & set(absent))
    assert runs["block"].stdout == runs["plain"].stdout != ""
