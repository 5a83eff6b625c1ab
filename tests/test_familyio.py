import random

import pytest

from kwise import Family, Universe, read_family, write_family
from kwise.familyio import parse_set_line


def test_round_trip_canonical():
    u = Universe(5)
    f = Family(u, [0, 3, 17, 30])
    text = write_family(f)
    assert text.splitlines()[0] == "n=5"
    assert read_family(text) == f
    # canonical form: ascending mask order, one line per member
    assert write_family(read_family(text)) == text


def test_empty_set_line():
    f = read_family("n=3\n{}\n1,3\n")
    assert f.members == (0, 0b101)
    assert write_family(f) == "n=3\n{}\n1,3\n"


def test_hex_lines_accepted():
    f = read_family("n=4\n0x0\n0xA\n0xf\n")
    assert f.members == (0, 0b1010, 0b1111)


def test_comments_and_blanks_skipped():
    text = "# preamble\n\nn=3\n# {\"schema\": 1}\n1\n\n2,3\n"
    assert read_family(text).members == (1, 0b110)


def test_header_comment_written_and_reread():
    f = Family(Universe(3), [1, 6])
    text = write_family(f, header={"schema": 1, "k": 3})
    assert text.splitlines()[1].startswith("# {")
    assert read_family(text) == f


def test_duplicates_collapse():
    assert read_family("n=2\n1\n0x1\n").members == (1,)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "1,2\n",  # missing header
        "n=zero\n",
        "n=0\n",
        "n=3\n2,1\n",  # not ascending
        "n=3\n1,1\n",  # repeated element
        "n=3\n4\n",  # element out of range
        "n=3\n0x9\n",  # hex mask out of range
        "n=3\n1,a\n",
        "n=3\n0xzz\n",
        # int() alone would read these as n = 10, element 10 and mask 3
        "n=1_0\n",
        "n=10\n1,1_0\n",
        "n=4\n0x_3\n",
        # nor are signs, inner whitespace or non-ASCII digits in the format
        "n=+3\n+1,+2\n",
        "n=3\n+1,+2\n",
        "n= 3\n1, 2\n",
        "n=3\n1, 2\n",
        "n=3\n1 ,2\n",
        "n=3\n\u0661,2\n",
        "n=\u0663\n1\n",
        "n=3\n0x\u0661\n",
        "n=3\n0x 3\n",
        "n=3\n0x+3\n",
    ],
)
def test_malformed_inputs_rejected(text):
    with pytest.raises(ValueError):
        read_family(text)


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("n=3\n0\n", "element 0 outside universe 1..3"),
        ("n=3\n-2,1\n", "element -2 outside universe 1..3"),
        ("n=3\n1,4\n", "element 4 outside universe 1..3"),
        ("n=3\n2,0\n", "element 0 outside universe 1..3"),
        ("n=3\n2,1\n", "elements must be strictly ascending"),
        ("n=+3\n1\n", "bad universe size line"),
        ("n=3\n1, 2\n", "bad set line"),
        ("n=3\n0x\u0661\n", "bad hex mask line"),
    ],
)
def test_malformed_element_messages(text, message):
    with pytest.raises(ValueError, match=message):
        read_family(text)


def _outcome(parse, *args):
    try:
        return parse(*args)
    except ValueError as e:
        return f"ValueError: {e}"


def _random_line(rng, n):
    elems = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
    tokens = [str(e) for e in elems]
    kind = rng.randrange(10)
    if kind == 0:
        return rng.choice(["{}", "{ }", "{}1", f"0x{rng.randrange(1 << n):x}",
                           f"0X{rng.randrange(1 << (n + 1)):X}", "0x", "0x-1"])
    if kind == 1:  # leading zeros
        i = rng.randrange(len(tokens))
        tokens[i] = "0" * rng.randint(1, 2) + tokens[i]
    elif kind == 2:  # spaces inside the line
        i = rng.randrange(len(tokens))
        tokens[i] = rng.choice([" ", "\t"]) + tokens[i]
    elif kind == 3:  # a duplicate
        i = rng.randrange(len(tokens))
        tokens.insert(i, tokens[i])
    elif kind == 4:  # out of range
        tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(["0", str(n + 1), "99", "-1"]))
    elif kind == 5 and len(tokens) > 1:  # descending
        tokens.reverse()
    elif kind == 6:  # empty, signed or non-digit tokens
        tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(["", "+1", "a", "1_0", "١"]))
    return ",".join(tokens)


def test_read_family_matches_the_per_line_parser():
    # read_family takes canonical lines from its bit table and the rest
    # from parse_set_line; each line, stripped as read_family strips it,
    # must give the same mask or message
    rng = random.Random(21)
    for n in (1, 2, 3, 9, 10, 12, 20, 62):
        u = Universe(n)
        lines = [_random_line(rng, n) for _ in range(300)]
        for line in lines:
            want = _outcome(parse_set_line, line.strip(), u)
            got = _outcome(read_family, f"n={n}\n{line}\n")
            assert got == (want if isinstance(want, str) else Family(u, [want])), line
        valid = [line.strip() for line in lines
                 if not isinstance(_outcome(parse_set_line, line.strip(), u), str)]
        text = "".join(f"{line}\n" for line in [f"n={n}", *valid])
        assert read_family(text) == Family(u, (parse_set_line(line, u) for line in valid))
